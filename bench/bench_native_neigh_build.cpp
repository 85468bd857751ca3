/**
 * @file
 * Throughput of the neighbor-list build pipeline (DESIGN.md §14):
 * sweeps SIMD filter width (1 = the scalar oracle walk, -1 = native
 * width) × thread count × system size on the LJ melt and reports
 * best-of-N build time, ns/atom, and the bytes/atom of the packing the
 * pair kernels traverse. The `vs_w1_serial` column is the speedup
 * against the width-1 single-thread build of the same system — the
 * number the vectorized + threaded build is accountable to.
 *
 * Usage: bench_native_neigh_build [--quick] [shared flags]
 * `--quick` shrinks systems and the repeat count to smoke-test size.
 */

#include <algorithm>
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/suite.h"
#include "harness/report.h"
#include "md/neighbor.h"
#include "md/simulation.h"
#include "obs/bench_options.h"
#include "util/simd.h"
#include "util/table.h"
#include "util/thread_pool.h"
#include "util/timer.h"

using namespace mdbench;

namespace {

std::string
formatDouble(double value, int precision)
{
    std::ostringstream os;
    os.precision(precision);
    os << std::fixed << value;
    return os.str();
}

/** Bytes of the packing the pair kernels actually traverse. */
std::size_t
packedListBytes(const NeighborList &list)
{
    return sizeof(std::uint32_t) *
           (list.offsets.size() + list.packedSlots());
}

struct Cell
{
    std::size_t natoms = 0;
    std::size_t pairs = 0;
    double buildMs = 0.0;
    double bytesPerAtom = 0.0;
};

/**
 * Best-of-@p reps rebuild time with the requested knobs applied for
 * the whole cell (positions are frozen, so every rebuild does
 * identical work and the minimum is the clean measurement).
 */
Cell
runCell(int cells, int width, int threads, int reps)
{
    setSimdWidth(width);
    ThreadPool::setThreads(threads);
    auto sim = buildLJ(cells);
    sim->thermoEvery = 0;
    sim->setup();

    Cell cell;
    cell.natoms = sim->atoms.nlocal();
    double best = -1.0;
    for (int rep = 0; rep < reps; ++rep) {
        WallTimer wall;
        sim->neighbor.build(*sim);
        const double elapsed = wall.seconds();
        if (best < 0.0 || elapsed < best)
            best = elapsed;
    }
    cell.buildMs = best * 1e3;
    cell.pairs = sim->neighbor.list().pairCount();
    cell.bytesPerAtom =
        static_cast<double>(packedListBytes(sim->neighbor.list())) /
        static_cast<double>(cell.natoms);
    setSimdWidth(-1);
    return cell;
}

} // namespace

int
main(int argc, char **argv)
{
    BenchRun run(argc, argv, "bench_native_neigh_build");
    bool quick = false;
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], "--quick") == 0)
            quick = true;

    const int reps = quick ? 2 : 3;
    // buildLJ(c) is 4c³ atoms: the full sweep ends at the paper's
    // 500k-atom LJ working set (the acceptance workload), quick stays
    // smoke-test sized.
    const std::vector<int> sizes =
        quick ? std::vector<int>{5, 8} : std::vector<int>{16, 32, 50};
    const int hwThreads = std::max(
        1, static_cast<int>(std::thread::hardware_concurrency()));
    std::vector<int> threadCounts{1};
    if (hwThreads > 1)
        threadCounts.push_back(hwThreads);

    const int previousThreads = ThreadPool::threads();
    Table table({"width", "backend", "threads", "atoms", "pairs",
                 "build_ms", "ns_per_atom", "list_bytes_per_atom",
                 "vs_w1_serial"});
    for (const int cells : sizes) {
        double widthOneSerialMs = 0.0;
        for (const int width : {1, -1}) {
            for (const int threads : threadCounts) {
                const Cell cell = runCell(cells, width, threads, reps);
                if (width == 1 && threads == 1)
                    widthOneSerialMs = cell.buildMs;
                const int resolvedWidth =
                    width == -1 ? simdWidthFor(false) : width;
                table.addRow(
                    {std::to_string(resolvedWidth),
                     simdBackendName(resolvedWidth),
                     std::to_string(threads),
                     std::to_string(cell.natoms),
                     std::to_string(cell.pairs),
                     formatDouble(cell.buildMs, 3),
                     formatDouble(cell.buildMs * 1e6 /
                                      static_cast<double>(cell.natoms),
                                  2),
                     formatDouble(cell.bytesPerAtom, 1),
                     formatDouble(cell.buildMs > 0.0
                                      ? widthOneSerialMs / cell.buildMs
                                      : 0.0,
                                  3)});
            }
        }
    }
    ThreadPool::setThreads(previousThreads);
    emitTable(std::cout, table, "native_neigh_build");
    return 0;
}
