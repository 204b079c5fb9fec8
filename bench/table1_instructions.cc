/**
 * @file
 * Reproduces Table I: the seven custom task-scheduling instructions,
 * their encodings and blocking semantics, validated against the live
 * delegate model (a one-task round trip driven instruction by
 * instruction).
 */

#include <cstdio>

#include "cpu/system.hh"
#include "rocc/rocc_inst.hh"
#include "rocc/task_packets.hh"
#include "spec/engine.hh"

using namespace picosim;
using namespace picosim::rocc;

int
main()
{
    std::printf("# Table I: supported custom task scheduling "
                "instructions\n");
    std::printf("%-20s %-8s %-10s %-5s %-5s %-4s\n", "name", "funct7",
                "blocking", "rs1", "rs2", "rd");
    for (unsigned f = 0; f < kNumTaskInsts; ++f) {
        const auto funct = static_cast<TaskFunct>(f);
        const InstSignature sig = signatureOf(funct);
        std::printf("%-20s %-8u %-10s %-5s %-5s %-4s\n",
                    std::string(functName(funct)).c_str(), f,
                    isNonBlocking(funct) ? "no" : "yes",
                    sig.usesRs1 ? "yes" : "-", sig.usesRs2 ? "yes" : "-",
                    sig.writesRd ? "yes" : "-");
    }

    // Validate semantics with a live single-task round trip on core 0.
    spec::RunSpec rs;
    rs.cores = 1;
    rs.canonicalize();
    const auto sysPtr = spec::Engine::makeSystem(rs);
    cpu::System &sys = *sysPtr;
    auto &del = sys.delegateOf(0);
    auto &sim = sys.simulator();

    TaskDescriptor desc;
    desc.swId = 77;
    desc.deps = {{0x1000, Dir::InOut}};
    const auto pkts = encodeNonZero(desc);

    bool ok = del.submissionRequest(static_cast<unsigned>(pkts.size()));
    std::printf("\n# Live round trip\nSubmissionRequest(%zu) -> %s\n",
                pkts.size(), ok ? "ok" : "fail");
    for (std::size_t i = 0; i < pkts.size(); i += 3) {
        const std::uint64_t rs1 =
            (static_cast<std::uint64_t>(pkts[i]) << 32) | pkts[i + 1];
        del.submitThreePackets(rs1, pkts[i + 2]);
    }
    std::printf("SubmitThreePackets x%zu -> ok\n", pkts.size() / 3);
    del.readyTaskRequest();
    std::printf("ReadyTaskRequest -> ok\n");

    // Let the hardware process the descriptor.
    sim.run([&] { return del.fetchSwId().has_value(); }, 10000);
    const auto sw = del.fetchSwId();
    const auto pid = del.fetchPicosId();
    if (!sw || !pid) {
        std::printf("FAILED: ready tuple never delivered\n");
        return 1;
    }
    std::printf("FetchSwId -> %llu (expected 77)\n",
                static_cast<unsigned long long>(*sw));
    std::printf("FetchPicosId -> %u\n", *pid);
    del.retireTask(*pid);
    sim.run([&] { return sys.scheduler().quiescent(); }, 10000);
    std::printf("RetireTask -> retired, Picos quiescent: %s\n",
                sys.scheduler().quiescent() ? "yes" : "no");
    return 0;
}
