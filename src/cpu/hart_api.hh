/**
 * @file
 * The per-hart programming interface used by simulated runtime software.
 *
 * Every method is an awaitable operation on the simulated timeline of one
 * hart: custom RoCC instructions charge the 2-cycle RoCC round trip
 * (Section IV-F2), memory operations either charge MESI model latencies
 * inline or suspend until the timed memory subsystem's completion cycle,
 * and executePayload models a task body including bandwidth contention.
 *
 * Delegate access is a link configuration (sim::LinkTimings): the
 * tightly-coupled RoCC instructions pay the short issue latency, while
 * looseIssue()/looseResponse() charge the loosely-coupled (AXI MMIO)
 * link the Nanos-AXI baseline is built on.
 */

#ifndef PICOSIM_CPU_HART_API_HH
#define PICOSIM_CPU_HART_API_HH

#include <cstdint>
#include <optional>

#include "cpu/bandwidth.hh"
#include "delegate/picos_delegate.hh"
#include "mem/coherent_memory.hh"
#include "mem/mem_subsystem.hh"
#include "sim/cotask.hh"
#include "sim/port.hh"
#include "sim/types.hh"

namespace picosim::cpu
{

struct HartApiParams
{
    /** Core-side occupancy of one RoCC custom instruction. */
    Cycle roccLatency = 2;
};

class HartApi
{
  public:
    /**
     * Awaitable charging a fixed latency, then executing an operation at
     * the resume point. Replaces the former CoTask wrappers around
     * "Delay, then act": the operation runs at exactly the same simulated
     * cycle, but awaiting costs no coroutine frame and no symmetric
     * transfers — the per-instruction hot path of every runtime model.
     * Zero-latency awaits complete inline without suspending, exactly
     * like Delay{0}.
     */
    template <typename Fn>
    struct DelayedOp
    {
        Cycle cycles;
        Fn fn;

        bool await_ready() const { return cycles == 0; }

        void
        await_suspend(std::coroutine_handle<> h) const
        {
            sim::HartContext *ctx = sim::HartContext::current();
            if (!ctx)
                sim::panic("HartApi op awaited outside a HartContext");
            ctx->suspendFor(cycles, h);
        }

        auto await_resume() const { return fn(); }
    };

    /** Awaitable for one memory operation: inline mode charges the MESI
     *  model's latency as a plain delay (zero-latency hits complete
     *  without suspending), timed mode schedules the request at issue and
     *  suspends the hart until its completion cycle (at least one cycle)
     *  — bit-identical to the former coroutine wrappers, minus their
     *  frames. */
    struct MemOpAwait
    {
        enum class Kind : std::uint8_t { Read, Write, Atomic, Stream };

        HartApi *api;
        Addr addr;
        unsigned lines;
        Kind kind;
        bool isWrite = false; ///< stream direction (Kind::Stream only)
        Cycle latency = 0;

        bool
        await_ready()
        {
            if (lines == 0)
                return true; // no lines, no traffic — in either mode
            if (api->timed_)
                return false;
            mem::CoherentMemory &mem = api->mem_;
            const CoreId core = api->core_;
            switch (kind) {
              case Kind::Read:
                latency = mem.read(core, addr);
                break;
              case Kind::Write:
                latency = mem.write(core, addr);
                break;
              case Kind::Atomic:
                latency = mem.atomicRmw(core, addr);
                break;
              case Kind::Stream:
                latency = mem.streamTouch(core, addr, lines, isWrite);
                break;
            }
            return latency == 0;
        }

        void
        await_suspend(std::coroutine_handle<> h) const
        {
            sim::HartContext *ctx = sim::HartContext::current();
            if (!ctx)
                sim::panic("HartApi op awaited outside a HartContext");
            if (api->timed_) {
                mem::MemOp op = mem::MemOp::Read;
                switch (kind) {
                  case Kind::Read:
                    break;
                  case Kind::Write:
                    op = mem::MemOp::Write;
                    break;
                  case Kind::Atomic:
                    op = mem::MemOp::Atomic;
                    break;
                  case Kind::Stream:
                    op = isWrite ? mem::MemOp::Write : mem::MemOp::Read;
                    break;
                }
                const Cycle done =
                    api->timed_->issue(api->core_, op, addr, lines);
                ctx->suspendFor(done - ctx->clock().now(), h);
            } else {
                ctx->suspendFor(latency, h);
            }
        }

        void await_resume() const noexcept {}
    };

    /**
     * @param timed Timed memory subsystem; nullptr selects the inline
     *        (functional-latency) path against @p mem directly.
     */
    HartApi(CoreId core, delegate::PicosDelegate &del,
            mem::CoherentMemory &mem, BandwidthModel &bw,
            const HartApiParams &params = {},
            mem::TimedMemory *timed = nullptr)
        : core_(core), delegate_(del), mem_(mem), bw_(bw), params_(params),
          timed_(timed)
    {
    }

    CoreId coreId() const { return core_; }
    delegate::PicosDelegate &delegateRef() { return delegate_; }
    mem::CoherentMemory &memRef() { return mem_; }
    BandwidthModel &bandwidthRef() { return bw_; }

    // -- Loosely-coupled (MMIO/AXI) delegate link --

    /** Configure the loose link's timings (the AXI runtime installs the
     *  calibrated MMIO costs from its cost model here). */
    void setLooseLink(sim::LinkTimings link) { loose_ = link; }

    const sim::LinkTimings &looseLink() const { return loose_; }

    /** Charge one posted write (command issue) over the loose link. */
    sim::Delay looseIssue() const { return sim::Delay{loose_.issue}; }

    /** Charge one read round trip (status/response) over the loose link. */
    sim::Delay looseResponse() const { return sim::Delay{loose_.response}; }

    /** Pure compute: advance this hart's clock. */
    sim::Delay delay(Cycle cycles) const { return sim::Delay{cycles}; }

    // -- Custom task-scheduling instructions (Table I) --

    auto
    submissionRequest(unsigned num_packets)
    {
        return roccOp([this, num_packets] {
            return delegate_.submissionRequest(num_packets);
        });
    }

    auto
    submitPacket(std::uint32_t packet)
    {
        return roccOp(
            [this, packet] { return delegate_.submitPacket(packet); });
    }

    auto
    submitThreePackets(std::uint64_t rs1, std::uint64_t rs2)
    {
        return roccOp([this, rs1, rs2] {
            return delegate_.submitThreePackets(rs1, rs2);
        });
    }

    auto
    readyTaskRequest()
    {
        return roccOp([this] { return delegate_.readyTaskRequest(); });
    }

    auto
    fetchSwId()
    {
        return roccOp([this] { return delegate_.fetchSwId(); });
    }

    auto
    fetchPicosId()
    {
        return roccOp([this] { return delegate_.fetchPicosId(); });
    }

    /** Retire Task: the one blocking instruction (Section IV-B). */
    sim::CoTask<void>
    retireTask(std::uint32_t picos_id)
    {
        co_await sim::Delay{params_.roccLatency};
        if (!delegate_.retireCanAccept()) {
            delegate::PicosDelegate *del = &delegate_;
            co_await sim::WaitUntil{
                [del] { return del->retireCanAccept(); }};
        }
        delegate_.retireTask(picos_id);
    }

    // -- Memory operations (runtime data structures) --

    MemOpAwait
    read(Addr addr)
    {
        return MemOpAwait{this, addr, 1, MemOpAwait::Kind::Read};
    }

    MemOpAwait
    write(Addr addr)
    {
        return MemOpAwait{this, addr, 1, MemOpAwait::Kind::Write};
    }

    MemOpAwait
    atomicRmw(Addr addr)
    {
        return MemOpAwait{this, addr, 1, MemOpAwait::Kind::Atomic};
    }

    /**
     * Touch @p lines consecutive cache lines starting at @p base. Inline
     * mode charges the serial sum of latencies; timed mode issues the
     * burst through the L1 front-end, so misses overlap up to the MSHR
     * count and the hart resumes at the last response.
     */
    MemOpAwait
    streamTouch(Addr base, unsigned lines, bool is_write)
    {
        return MemOpAwait{this, base, lines, MemOpAwait::Kind::Stream,
                          is_write};
    }

    // -- Task payload execution --

    /** Awaitable for one task body: bandwidth bookkeeping brackets the
     *  inflated delay, at the same simulated cycles as the former
     *  coroutine wrapper. */
    struct PayloadAwait
    {
        BandwidthModel &bw;
        Cycle baseCycles;
        Cycle cost = 0;
        bool finished = false;

        bool
        await_ready()
        {
            bw.beginPayload();
            cost = bw.inflate(baseCycles);
            if (cost == 0) {
                bw.endPayload();
                finished = true;
                return true;
            }
            return false;
        }

        void
        await_suspend(std::coroutine_handle<> h) const
        {
            sim::HartContext *ctx = sim::HartContext::current();
            if (!ctx)
                sim::panic("HartApi op awaited outside a HartContext");
            ctx->suspendFor(cost, h);
        }

        void
        await_resume()
        {
            if (!finished)
                bw.endPayload();
        }
    };

    /**
     * Execute a task body of @p base_cycles, inflated by memory-bandwidth
     * contention with other concurrently executing payloads.
     */
    PayloadAwait
    executePayload(Cycle base_cycles)
    {
        return PayloadAwait{bw_, base_cycles};
    }

  private:
    /** Wrap a delegate call in the RoCC round-trip latency. */
    template <typename Fn>
    DelayedOp<Fn>
    roccOp(Fn fn)
    {
        return DelayedOp<Fn>{params_.roccLatency, std::move(fn)};
    }

    CoreId core_;
    delegate::PicosDelegate &delegate_;
    mem::CoherentMemory &mem_;
    BandwidthModel &bw_;
    HartApiParams params_;
    mem::TimedMemory *timed_;

    /**
     * Loose-link costs; zero (combinational) until a runtime installs
     * its calibrated MMIO timings via setLooseLink() — Nanos-AXI does so
     * from its cost model at install().
     */
    sim::LinkTimings loose_{};
};

} // namespace picosim::cpu

#endif // PICOSIM_CPU_HART_API_HH
