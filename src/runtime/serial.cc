#include "runtime/serial.hh"

#include "runtime/task_trace.hh"

namespace picosim::rt
{

sim::CoTask<void>
Serial::runTask(cpu::HartApi &api, const Program &prog, const Task &task)
{
    // The spawn is a plain call: submitted on reaching it, dispatched
    // once the call is made, retired when the body (children included)
    // returns. Everything runs on core 0.
    if (trace_)
        trace_->onSubmit(task.id, clock_->now());
    co_await api.delay(cm_.call);
    if (trace_)
        trace_->onDispatch(task.id, clock_->now(), api.coreId());
    co_await api.executePayload(task.payload);
    ++executed_;
    // Nested bodies run depth-first in body order; by the time a scoped
    // taskwait is reached its children have already completed, so it is a
    // no-op serially (flat tasks have empty bodies and add no awaits).
    for (const BodyOp &op : prog.bodyOf(task.id)) {
        if (op.kind == BodyOp::Kind::SpawnChild)
            co_await runTask(api, prog, prog.taskById(op.child));
    }
    if (trace_)
        trace_->onRetire(task.id, clock_->now());
}

sim::CoTask<void>
Serial::thread(cpu::HartApi &api, const Program &prog)
{
    for (const Action &a : prog.actions) {
        if (a.kind != Action::Kind::Spawn)
            continue; // taskwait is a no-op serially
        co_await runTask(api, prog, a.task);
    }
    finished_ = true;
}

void
Serial::install(cpu::System &sys, const Program &prog)
{
    clock_ = &sys.clock();
    sys.installThread(0, thread(sys.hartApi(0), prog));
}

} // namespace picosim::rt
