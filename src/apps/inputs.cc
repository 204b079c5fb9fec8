/**
 * @file
 * The 37 benchmark inputs of Figure 9, in figure order.
 *
 * Input mapping (DESIGN.md substitutions): blackscholes and jacobi use the
 * paper's sizes directly; sparseLU "N32"/"N128" block grids are scaled to
 * 8x8 / 12x12 blocks with block size 6*M elements so the granularity sweep
 * spans the same decades while full Nanos-SW sweeps stay tractable;
 * stream sizes "NxM" map to N blocks of M doubles.
 *
 * Every input is expressed as a workload-registry name plus `wl.*`
 * parameters, so figure rows and spec files describe the exact same runs.
 */

#include "apps/workloads.hh"

namespace picosim::apps
{

rt::Program
BenchInput::build() const
{
    return spec::WorkloadRegistry::instance().build(program, args);
}

std::vector<BenchInput>
figure9Inputs()
{
    std::vector<BenchInput> inputs;

    // blackscholes: 4K and 16K options, block size 8..256.
    for (unsigned opts : {4096u, 16384u}) {
        for (unsigned b : {8u, 16u, 32u, 64u, 128u, 256u}) {
            const std::string sz = opts == 4096 ? "4K" : "16K";
            inputs.push_back({"blackscholes", sz + " B" + std::to_string(b),
                              {{"options", opts}, {"block", b}}});
        }
    }

    // jacobi: N in {128, 256, 512}, one-row blocks, 8 sweeps.
    // The sizes are named lvalues: GCC 12 reports a false -Wrestrict
    // through operator+(const char *, string &&) on a temporary.
    for (unsigned n : {128u, 256u, 512u}) {
        const std::string size = std::to_string(n);
        inputs.push_back(
            {"jacobi", "N" + size + " B1",
             {{"n", n}, {"block-rows", 1}, {"sweeps", 8}}});
    }

    // sparselu: two grid sizes x block-size multiplier M in {1..16}.
    for (unsigned n : {32u, 128u}) {
        const unsigned nb = n == 32 ? 8 : 12;
        const std::string size = std::to_string(n);
        for (unsigned m : {1u, 2u, 4u, 8u, 16u}) {
            inputs.push_back(
                {"sparselu", "N" + size + " M" + std::to_string(m),
                 {{"nb", nb}, {"bs", 6 * m}}});
        }
    }

    // stream-barr and stream-deps: same six sizes each.
    struct StreamSize { const char *label; unsigned blocks, elems; };
    const StreamSize sizes[] = {
        {"64", 8, 8},          {"16x16", 16, 16},
        {"16x128", 16, 128},   {"128x128", 128, 128},
        {"128x1024", 128, 1024}, {"4096x4096", 1024, 4096},
    };
    for (const auto &s : sizes) {
        inputs.push_back({"stream-barr", s.label,
                          {{"blocks", s.blocks}, {"elems", s.elems},
                           {"iters", 2}}});
    }
    for (const auto &s : sizes) {
        inputs.push_back({"stream-deps", s.label,
                          {{"blocks", s.blocks}, {"elems", s.elems},
                           {"iters", 2}}});
    }

    return inputs;
}

} // namespace picosim::apps
