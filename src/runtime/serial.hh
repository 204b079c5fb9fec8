/**
 * @file
 * Serial executor: the -O3 serial binary the paper's speedups are
 * measured against (Section VI-A1).
 */

#ifndef PICOSIM_RUNTIME_SERIAL_HH
#define PICOSIM_RUNTIME_SERIAL_HH

#include "runtime/cost_model.hh"
#include "runtime/runtime.hh"

namespace picosim::rt
{

class Serial : public Runtime
{
  public:
    explicit Serial(const CostModel &cm = {}) : cm_(cm) {}

    std::string name() const override { return "serial"; }

    void install(cpu::System &sys, const Program &prog) override;

    bool finished() const override { return finished_; }
    std::uint64_t tasksExecuted() const override { return executed_; }

  private:
    sim::CoTask<void> thread(cpu::HartApi &api, const Program &prog);

    /** Execute one task and, depth-first, every task its body spawns. */
    sim::CoTask<void> runTask(cpu::HartApi &api, const Program &prog,
                              const Task &task);

    CostModel cm_;
    const sim::Clock *clock_ = nullptr;
    bool finished_ = false;
    std::uint64_t executed_ = 0;
};

} // namespace picosim::rt

#endif // PICOSIM_RUNTIME_SERIAL_HH
