#include "md/neighbor.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <type_traits>

#include "md/simulation.h"
#include "obs/counters.h"
#include "obs/trace.h"
#include "util/error.h"
#include "util/simd.h"
#include "util/thread_pool.h"

namespace mdbench {

namespace {

/** Grain for the per-atom neighbor loops (no reduction scratch). */
constexpr std::size_t kNeighborGrain = 128;

/**
 * Trailing slots kept readable past the logical end of the bin-ordered
 * arrays so the W-wide filter can always load a whole chunk; the lanes
 * beyond a bin's end are masked off, never consumed.
 */
constexpr std::size_t kSimdPad = 16;

/** Uniform bin grid over the box plus a ghost shell of one cutoff. */
struct BinGrid
{
    mdbench::Vec3 lo;
    int nb[3];
    double inv[3];
    std::size_t nbins;

    std::array<int, 3>
    cellOf(const mdbench::Vec3 &pos) const
    {
        int bx = static_cast<int>((pos.x - lo.x) * inv[0]);
        int by = static_cast<int>((pos.y - lo.y) * inv[1]);
        int bz = static_cast<int>((pos.z - lo.z) * inv[2]);
        bx = std::clamp(bx, 0, nb[0] - 1);
        by = std::clamp(by, 0, nb[1] - 1);
        bz = std::clamp(bz, 0, nb[2] - 1);
        return {bx, by, bz};
    }

    std::size_t
    flatten(int bx, int by, int bz) const
    {
        return (static_cast<std::size_t>(bz) * nb[1] + by) * nb[0] + bx;
    }
};

BinGrid
makeBinGrid(const mdbench::Box &box, double cut)
{
    BinGrid grid;
    grid.lo = box.lo() - mdbench::Vec3{cut, cut, cut};
    const mdbench::Vec3 hi = box.hi() + mdbench::Vec3{cut, cut, cut};
    const mdbench::Vec3 len = hi - grid.lo;
    const double lens[3] = {len.x, len.y, len.z};
    for (int axis = 0; axis < 3; ++axis) {
        grid.nb[axis] = std::max(1, static_cast<int>(lens[axis] / cut));
        grid.inv[axis] = grid.nb[axis] / lens[axis];
    }
    grid.nbins =
        static_cast<std::size_t>(grid.nb[0]) * grid.nb[1] * grid.nb[2];
    return grid;
}

/**
 * Counting-sort binning: bin counts -> prefix sum -> scatter into a
 * contiguous per-bin atom array. Within a bin atoms end up in ascending
 * index order (the scatter walks atoms in order), and the contiguous
 * layout streams better than chasing head/next chains. Shared by the
 * list build (over owned + ghost atoms) and the spatial sort (over
 * owned atoms only), so both traverse identical bin geometry.
 */
void
countingSortBins(const BinGrid &grid, const mdbench::Vec3 *x, std::size_t n,
                 std::vector<std::uint32_t> &binOf,
                 std::vector<std::uint32_t> &binStart,
                 std::vector<std::uint32_t> &binCursor,
                 std::vector<std::uint32_t> &binAtoms)
{
    binOf.resize(n);
    binStart.assign(grid.nbins + 1, 0);
    for (std::size_t i = 0; i < n; ++i) {
        const auto b = grid.cellOf(x[i]);
        const std::uint32_t flat =
            static_cast<std::uint32_t>(grid.flatten(b[0], b[1], b[2]));
        binOf[i] = flat;
        ++binStart[flat + 1];
    }
    for (std::size_t b = 0; b < grid.nbins; ++b)
        binStart[b + 1] += binStart[b];
    binAtoms.resize(n);
    binCursor.assign(binStart.begin(), binStart.end() - 1);
    for (std::size_t i = 0; i < n; ++i)
        binAtoms[binCursor[binOf[i]]++] = static_cast<std::uint32_t>(i);
}

/**
 * Threaded counting sort over the shared pool, bitwise identical to
 * the serial version: per-slice histograms, a serial (bin, slice)
 * prefix that assigns each slice a scatter cursor per bin, then a
 * parallel scatter. Slices are a fixed partition of the atom range and
 * walk atoms ascending, so within a bin the final order is ascending
 * atom index exactly as the serial scatter produces.
 */
void
countingSortBinsParallel(const BinGrid &grid, const mdbench::Vec3 *x,
                         std::size_t n, ThreadPool &pool,
                         std::vector<std::uint32_t> &binOf,
                         std::vector<std::uint32_t> &binStart,
                         std::vector<std::uint32_t> &binSliceCount,
                         std::vector<std::uint32_t> &binAtoms)
{
    const SliceRange slices(0, n, kNeighborGrain);
    const std::size_t nslices = static_cast<std::size_t>(slices.count());
    const std::size_t nbins = grid.nbins;
    binOf.resize(n);
    binSliceCount.assign(nslices * nbins, 0);
    pool.run(slices, [&](std::size_t begin, std::size_t end, int s) {
        std::uint32_t *counts = binSliceCount.data() + s * nbins;
        for (std::size_t i = begin; i < end; ++i) {
            const auto b = grid.cellOf(x[i]);
            const std::uint32_t flat =
                static_cast<std::uint32_t>(grid.flatten(b[0], b[1], b[2]));
            binOf[i] = flat;
            ++counts[flat];
        }
    });
    // Serial prefix over (bin, slice): leaves each slice's per-bin
    // scatter cursor in its histogram slot and the bin offsets in
    // binStart, matching the serial prefix bin for bin.
    binStart.resize(nbins + 1);
    binStart[0] = 0;
    std::uint32_t running = 0;
    for (std::size_t b = 0; b < nbins; ++b) {
        for (std::size_t s = 0; s < nslices; ++s) {
            const std::uint32_t count = binSliceCount[s * nbins + b];
            binSliceCount[s * nbins + b] = running;
            running += count;
        }
        binStart[b + 1] = running;
    }
    binAtoms.resize(n);
    pool.run(slices, [&](std::size_t begin, std::size_t end, int s) {
        std::uint32_t *cursor = binSliceCount.data() + s * nbins;
        for (std::size_t i = begin; i < end; ++i)
            binAtoms[cursor[binOf[i]]++] = static_cast<std::uint32_t>(i);
    });
}

/**
 * W-wide distance test of one bin chunk: bit l of the result is set
 * when candidate cand[l] lies within cutSq of xi. The r² expression
 * matches the pair kernels' fma association, which on the generic
 * backend is bitwise `Vec3::normSq` (addition is commutative); ISA
 * backends fuse, which can flip inclusion only for pairs within one
 * ulp of the *build* cutoff (cutoff + skin) — physics is unaffected
 * because every kernel re-masks at the true cutoff.
 */
template <int W>
inline int
candidateDistanceMask(const double *xd, const std::uint32_t *cand,
                      const mdbench::Vec3 &xi, double cutSq)
{
    using D = mdbench::Simd<double, W>;
    const mdbench::SimdIndex<W> j = mdbench::SimdIndex<W>::load(cand);
    const mdbench::SimdIndex<W> base = j * 3u;
    const D xj = D::gather(xd, base);
    const D yj = D::gather(xd, base + 1u);
    const D zj = D::gather(xd, base + 2u);
    const D dx = xj - D(xi.x);
    const D dy = yj - D(xi.y);
    const D dz = zj - D(xi.z);
    const D rsq = D::fma(dz, dz, D::fma(dy, dy, dx * dx));
    return (rsq < D(cutSq)).bits();
}

/** Everything the vectorized row fill reads, hoisted once per build. */
struct BuildCtx
{
    const BinGrid &grid;
    const std::uint32_t *binStart; ///< CSR bin offsets
    const std::uint32_t *binAtoms; ///< bin-ordered atom ids (+ pad)
    const double *sx;              ///< bin-ordered x coordinates (+ pad)
    const double *sy;              ///< bin-ordered y coordinates (+ pad)
    const double *sz;              ///< bin-ordered z coordinates (+ pad)
    const mdbench::Vec3 *x;        ///< positions in atom order
    std::size_t nlocal;
    double cutSq;
};

/**
 * The stencil of atom @p i as contiguous binAtoms runs. flatten() is
 * x-fastest, so the dx = -1..1 triple of every (dy, dz) row is one
 * dense range of bin ids and therefore one dense range of bin-ordered
 * slots: at most 9 runs instead of 27 bins. Walking a run ascending
 * visits exactly the bins the scalar oracle visits, in its order.
 */
struct StencilRuns
{
    std::array<std::uint32_t, 9> lo; ///< first binAtoms slot of each run
    std::array<std::uint32_t, 9> hi; ///< one past the last slot
    int count = 0;
    std::uint32_t total = 0; ///< candidate slots across all runs
};

inline StencilRuns
stencilRuns(const BuildCtx &c, const mdbench::Vec3 &xi)
{
    const auto bi = c.grid.cellOf(xi);
    const int *nb = c.grid.nb;
    const int x0 = std::max(bi[0] - 1, 0);
    const int x1 = std::min(bi[0] + 1, nb[0] - 1);
    StencilRuns runs;
    for (int dz = -1; dz <= 1; ++dz) {
        const int bz = bi[2] + dz;
        if (bz < 0 || bz >= nb[2])
            continue;
        for (int dy = -1; dy <= 1; ++dy) {
            const int by = bi[1] + dy;
            if (by < 0 || by >= nb[1])
                continue;
            const std::size_t bin = c.grid.flatten(x0, by, bz);
            const std::uint32_t beg = c.binStart[bin];
            const std::uint32_t end =
                c.binStart[bin + static_cast<std::size_t>(x1 - x0) + 1];
            if (beg == end)
                continue;
            runs.lo[static_cast<std::size_t>(runs.count)] = beg;
            runs.hi[static_cast<std::size_t>(runs.count)] = end;
            ++runs.count;
            runs.total += end - beg;
        }
    }
    return runs;
}

/**
 * Fully vectorized CSR row fill for atom @p i (the exclusion-free
 * path): every stencil candidate is tested in a W-wide chunk of the
 * bin-ordered staging — contiguous transpose loads, no gathers — and
 * the whole inclusion predicate (distance, half-list index order,
 * ghost coordinate tie-break) is evaluated as lane masks. Accepted
 * lanes append through compressStore in ascending lane order, which is
 * exactly the scalar walk's emit order, so the produced rows are
 * identical to the scalar oracle's (modulo the documented 1-ulp ISA
 * fma contraction at the build cutoff).
 *
 * Chunks start at each run's first slot and lanes are independent, so
 * the result does not depend on W's chunk phase; lanes past the run
 * end read the next bin's staged records (or the pad at the array
 * end) and are masked off by the lane-index compare before they can
 * contribute.
 *
 * With Fill unset only the accepted count is computed (the threaded
 * two-pass build's first pass). The caller precomputes @p runs — once
 * per row per pass — and charges runs.total to the candidate counter
 * from the pass that runs once.
 */
template <int W, bool Full, bool Fill>
inline std::uint32_t
fillRowSimd(const BuildCtx &c, std::size_t i, const StencilRuns &runs,
            std::uint32_t *dst)
{
    using D = mdbench::Simd<double, W>;
    using M = mdbench::SimdMask<double, W>;
    using I = mdbench::SimdIndex<W>;

    const mdbench::Vec3 xi = c.x[i];
    const D xiV(xi.x), yiV(xi.y), ziV(xi.z);
    const D cutSqV(c.cutSq);
    const std::uint32_t i32 = static_cast<std::uint32_t>(i);
    const std::uint32_t nlocal32 = static_cast<std::uint32_t>(c.nlocal);
    std::uint32_t n = 0;
    const auto chunk = [&](std::uint32_t at, int laneMask) {
        const I ids = I::load(c.binAtoms + at);
        const D xj = D::loadu(c.sx + at);
        const D yj = D::loadu(c.sy + at);
        const D zj = D::loadu(c.sz + at);
        const D ddx = xj - xiV;
        const D ddy = yj - yiV;
        const D ddz = zj - ziV;
        const D rsq = D::fma(ddz, ddz, D::fma(ddy, ddy, ddx * ddx));
        const M dist = rsq < cutSqV;
        M inc;
        if constexpr (Full) {
            // Full list: every in-range candidate except i itself.
            inc = M::fromIndexEQ(ids, i32).andnot(dist);
        } else {
            // Half list: local pairs once by index order, ghost pairs
            // once by the z/y/x coordinate tie-break (mirrors the
            // scalar walk lane for lane, including the ±0.0-safe
            // equal compares).
            const M isLocal = M::fromIndexLT(ids, nlocal32);
            const M idGT = M::fromIndexGT(ids, i32);
            const M tb = (zj > ziV) |
                         ((zj == ziV) &
                          ((yj > yiV) | ((yj == yiV) & (xj >= xiV))));
            inc = dist & ((isLocal & idGT) | isLocal.andnot(tb));
        }
        const int bits = inc.bits() & laneMask;
        if constexpr (Fill) {
            n += static_cast<std::uint32_t>(
                compressStore(dst + n, ids, bits));
        } else {
            n += static_cast<std::uint32_t>(
                std::popcount(static_cast<unsigned>(bits)));
        }
    };
    constexpr int kFullMask = (1 << W) - 1;
    for (int run = 0; run < runs.count; ++run) {
        const std::uint32_t runEnd = runs.hi[static_cast<std::size_t>(run)];
        std::uint32_t idx = runs.lo[static_cast<std::size_t>(run)];
        // Whole chunks need no lane-validity mask; the single tail
        // chunk keeps only its first runEnd - idx lanes (the rest read
        // the next bin's staged records, or the pad at the array end).
        for (; idx + W <= runEnd; idx += W)
            chunk(idx, kFullMask);
        if (idx < runEnd)
            chunk(idx, (1 << (runEnd - idx)) - 1);
    }
    return n;
}

/**
 * Vectorized CSR build over all owned atoms: serial single-pass append
 * (cursor fill with geometric headroom) or threaded two-pass
 * count/prefix/fill where each row lands in its exact [offsets[i],
 * offsets[i+1]) range — compressStore writes exactly its popcount, so
 * thread-owned rows can abut with no tail slop and the payload is
 * bitwise independent of the thread count.
 */
template <int W, bool Full>
void
buildRowsSimd(NeighborList &list, const BuildCtx &ctx, ThreadPool &pool,
              std::size_t prevCount, std::size_t &candidates)
{
    const std::size_t nlocal = ctx.nlocal;
    if (pool.size() == 1 || nlocal < 2 * kNeighborGrain) {
        list.neighbors.resize(prevCount + prevCount / 16 + 64);
        std::size_t cursor = 0;
        for (std::size_t i = 0; i < nlocal; ++i) {
            const StencilRuns runs = stencilRuns(ctx, ctx.x[i]);
            candidates += runs.total;
            if (list.neighbors.size() < cursor + runs.total) {
                list.neighbors.resize(std::max(2 * list.neighbors.size(),
                                               cursor + runs.total));
            }
            cursor += fillRowSimd<W, Full, true>(
                ctx, i, runs, list.neighbors.data() + cursor);
            list.offsets[i + 1] = static_cast<std::uint32_t>(cursor);
        }
        list.neighbors.resize(cursor);
        return;
    }
    pool.parallelFor(0, nlocal, kNeighborGrain,
                     [&](std::size_t begin, std::size_t end, int) {
                         for (std::size_t i = begin; i < end; ++i) {
                             const StencilRuns runs =
                                 stencilRuns(ctx, ctx.x[i]);
                             list.offsets[i + 1] =
                                 fillRowSimd<W, Full, false>(ctx, i, runs,
                                                             nullptr);
                         }
                     });
    for (std::size_t i = 0; i < nlocal; ++i)
        list.offsets[i + 1] += list.offsets[i];
    list.neighbors.resize(list.offsets[nlocal]);
    std::array<std::size_t, SliceRange::kMaxSlices> sliceCand{};
    std::uint32_t *nbrs = list.neighbors.data();
    const std::uint32_t *offs = list.offsets.data();
    pool.parallelFor(0, nlocal, kNeighborGrain,
                     [&](std::size_t begin, std::size_t end, int s) {
                         std::size_t cand = 0;
                         for (std::size_t i = begin; i < end; ++i) {
                             const StencilRuns runs =
                                 stencilRuns(ctx, ctx.x[i]);
                             cand += runs.total;
                             fillRowSimd<W, Full, true>(ctx, i, runs,
                                                        nbrs + offs[i]);
                         }
                         sliceCand[static_cast<std::size_t>(s)] += cand;
                     });
    for (std::size_t s = 0; s < sliceCand.size(); ++s)
        candidates += sliceCand[s];
}

/** Width × flavor dispatch for the vectorized build. */
void
dispatchBuildRows(int filterW, bool full, NeighborList &list,
                  const BuildCtx &ctx, ThreadPool &pool,
                  std::size_t prevCount, std::size_t &candidates)
{
    auto run = [&](auto widthTag, auto fullTag) {
        buildRowsSimd<decltype(widthTag)::value, decltype(fullTag)::value>(
            list, ctx, pool, prevCount, candidates);
    };
    auto width = [&](auto fullTag) {
        if (filterW == 8)
            run(std::integral_constant<int, 8>{}, fullTag);
        else if (filterW == 4)
            run(std::integral_constant<int, 4>{}, fullTag);
        else
            run(std::integral_constant<int, 2>{}, fullTag);
    };
    if (full)
        width(std::true_type{});
    else
        width(std::false_type{});
}

/**
 * Scalar stencil-walk build: the bitwise oracle (width knob 1) and
 * the only path for systems with exclusions (the exclusion probe is a
 * hash lookup, not mask algebra). Kept out of line and marked noinline
 * for the same reason Neighbor::buildImpl is: the vectorized staging
 * that now shares buildImpl would push gcc's function-size estimate
 * past its large-function limits and the hot candidate loop here would
 * stop being unrolled (~2x on the serial 500k-atom build). The W-wide
 * distance pre-filter is compiled in only when a width is active
 * (@p Prefilter) so the width-1 oracle keeps the seed's exact loop
 * shape — the dead dispatch alone costs ~15% at 500k atoms.
 */
template <bool Prefilter>
[[gnu::noinline]] void
buildRowsScalarImpl(Simulation &sim, NeighborList &list,
                    const BinGrid &grid, const std::uint32_t *binStart,
                    const std::uint32_t *binAtoms, std::size_t nlocal,
                    double cutSq, bool checkExclusions, int filterW,
                    ThreadPool &pool, std::size_t prevCount,
                    std::size_t &candidates)
{
    const AtomStore &atoms = sim.atoms;
    const Vec3 *x = atoms.x.data();
    static_assert(sizeof(Vec3) == 3 * sizeof(double));
    [[maybe_unused]] const double *xd =
        reinterpret_cast<const double *>(x);
    const bool full = list.full;
    const int *nb = grid.nb;

    // Stencil walk shared by every fill strategy: emit(j) for each
    // neighbor of i, in a traversal order that depends only on the
    // binning (never on threading), so all paths build identical lists.
    // The W-wide distance pre-filter tests chunks of W candidates at
    // once and only passing lanes take the scalar inclusion checks (in
    // ascending-lane order, preserving the emit order exactly — the
    // index/tie-break/exclusion rules are independent of the distance
    // test). @p cand, when non-null, accumulates the candidate total
    // for the build counters (passed only by the pass that runs once).
    auto visitNeighbors = [&](std::size_t i, auto &&emit,
                              std::size_t *cand) {
        const Vec3 xi = x[i];
        const auto bi = grid.cellOf(xi);
        // Non-distance inclusion checks for a candidate that already
        // passed the W-wide distance mask. Mirrors the scalar walk's
        // rules; only the (pure) check order differs.
        [[maybe_unused]] auto considerNear = [&](std::size_t ju) {
            if (ju == i)
                return;
            if (!full && ju < nlocal && ju < i)
                return;
            if (!full && ju >= nlocal) {
                const Vec3 xj = x[ju];
                if (xj.z != xi.z) {
                    if (xj.z < xi.z)
                        return;
                } else if (xj.y != xi.y) {
                    if (xj.y < xi.y)
                        return;
                } else if (xj.x < xi.x) {
                    return;
                }
            }
            if (checkExclusions &&
                sim.topology.excluded(atoms.tag[i], atoms.tag[ju]))
                return;
            emit(static_cast<std::uint32_t>(ju));
        };
        for (int dz = -1; dz <= 1; ++dz) {
            const int bz = bi[2] + dz;
            if (bz < 0 || bz >= nb[2])
                continue;
            for (int dy = -1; dy <= 1; ++dy) {
                const int by = bi[1] + dy;
                if (by < 0 || by >= nb[1])
                    continue;
                for (int dx = -1; dx <= 1; ++dx) {
                    const int bx = bi[0] + dx;
                    if (bx < 0 || bx >= nb[0])
                        continue;
                    const std::size_t bin = grid.flatten(bx, by, bz);
                    const std::uint32_t binEnd = binStart[bin + 1];
                    std::uint32_t idx = binStart[bin];
                    if (cand)
                        *cand += binEnd - idx;
                    if constexpr (Prefilter) {
                        auto filtered = [&](auto widthTag) {
                            constexpr int W = decltype(widthTag)::value;
                            for (; idx + W <= binEnd; idx += W) {
                                int mask = candidateDistanceMask<W>(
                                    xd, binAtoms + idx, xi, cutSq);
                                for (; mask; mask &= mask - 1) {
                                    const int l = std::countr_zero(
                                        static_cast<unsigned>(mask));
                                    considerNear(binAtoms[idx + l]);
                                }
                            }
                        };
                        if (filterW == 8)
                            filtered(std::integral_constant<int, 8>{});
                        else if (filterW == 4)
                            filtered(std::integral_constant<int, 4>{});
                        else if (filterW == 2)
                            filtered(std::integral_constant<int, 2>{});
                    }
                    for (; idx < binEnd; ++idx) {
                        const std::size_t ju = binAtoms[idx];
                        if (ju == i)
                            continue;
                        // Half-list inclusion rule (Newton on): local
                        // pairs once by index order (rejected before
                        // the position load); pairs with ghosts once by
                        // a coordinate tie-break, so that of the two
                        // mirrored boundary pairs exactly one side
                        // stores it.
                        if (!full && ju < nlocal && ju < i)
                            continue;
                        // One load serves both the ghost tie-break and
                        // the distance check below.
                        const Vec3 xj = x[ju];
                        if (!full && ju >= nlocal) {
                            if (xj.z != xi.z) {
                                if (xj.z < xi.z)
                                    continue;
                            } else if (xj.y != xi.y) {
                                if (xj.y < xi.y)
                                    continue;
                            } else if (xj.x < xi.x) {
                                continue;
                            }
                        }
                        if ((xj - xi).normSq() >= cutSq)
                            continue;
                        if (checkExclusions &&
                            sim.topology.excluded(atoms.tag[i],
                                                  atoms.tag[ju])) {
                            continue;
                        }
                        emit(static_cast<std::uint32_t>(ju));
                    }
                }
            }
        }
    };

    if (pool.size() == 1 || nlocal < 2 * kNeighborGrain) {
        // Serial single-pass fill. Sizing the payload from the previous
        // build (plus slack for density fluctuations) makes the first
        // fill after a rebuild allocation-free in steady state.
        list.neighbors.clear();
        list.neighbors.reserve(prevCount + prevCount / 16 + 64);
        for (std::size_t i = 0; i < nlocal; ++i) {
            visitNeighbors(i, [&](std::uint32_t ju) {
                list.neighbors.push_back(ju);
            }, &candidates);
            list.offsets[i + 1] =
                static_cast<std::uint32_t>(list.neighbors.size());
        }
        return;
    }
    // Two-pass count-then-fill: after the exclusive prefix sum each
    // thread writes the disjoint range [offsets[i], offsets[i+1]),
    // so the fill needs no synchronization.
    pool.parallelFor(0, nlocal, kNeighborGrain,
                     [&](std::size_t begin, std::size_t end, int) {
                         for (std::size_t i = begin; i < end; ++i) {
                             std::uint32_t count = 0;
                             visitNeighbors(i, [&](std::uint32_t) {
                                 ++count;
                             }, nullptr);
                             list.offsets[i + 1] = count;
                         }
                     });
    for (std::size_t i = 0; i < nlocal; ++i)
        list.offsets[i + 1] += list.offsets[i];
    list.neighbors.resize(list.offsets[nlocal]);
    std::array<std::size_t, SliceRange::kMaxSlices> sliceCand{};
    pool.parallelFor(0, nlocal, kNeighborGrain,
                     [&](std::size_t begin, std::size_t end, int s) {
                         std::size_t cand = 0;
                         for (std::size_t i = begin; i < end; ++i) {
                             std::uint32_t cursor = list.offsets[i];
                             visitNeighbors(i, [&](std::uint32_t ju) {
                                 list.neighbors[cursor++] = ju;
                             }, &cand);
                         }
                         sliceCand[static_cast<std::size_t>(s)] +=
                             cand;
                     });
    for (std::size_t s = 0; s < sliceCand.size(); ++s)
        candidates += sliceCand[s];
}

/** Prefilter on/off dispatch for the scalar walk. */
void
buildRowsScalar(Simulation &sim, NeighborList &list, const BinGrid &grid,
                const std::uint32_t *binStart,
                const std::uint32_t *binAtoms, std::size_t nlocal,
                double cutSq, bool checkExclusions, int filterW,
                ThreadPool &pool, std::size_t prevCount,
                std::size_t &candidates)
{
    if (filterW >= 2) {
        buildRowsScalarImpl<true>(sim, list, grid, binStart, binAtoms,
                                  nlocal, cutSq, checkExclusions, filterW,
                                  pool, prevCount, candidates);
    } else {
        buildRowsScalarImpl<false>(sim, list, grid, binStart, binAtoms,
                                   nlocal, cutSq, checkExclusions, filterW,
                                   pool, prevCount, candidates);
    }
}

} // namespace

void
countSimdLaneUse(const NeighborList &list, int traversals)
{
    const std::size_t t = static_cast<std::size_t>(traversals);
    counterAdd(Counter::PairSimdLanesActive, t * list.pairCount());
    counterAdd(Counter::PairSimdPaddingWaste, t * list.paddedSlots);
}

double
NeighborList::neighborsPerAtom() const
{
    const std::size_t n = offsets.empty() ? 0 : offsets.size() - 1;
    if (n == 0)
        return 0.0;
    // Half lists store each physical pair once, so each pair contributes
    // a neighbor to both of its atoms.
    const double perPair = full ? 1.0 : 2.0;
    return perPair * static_cast<double>(neighbors.size()) /
           static_cast<double>(n);
}

bool
Neighbor::checkTrigger(const Simulation &sim) const
{
    TraceScope trace("neigh", "trigger_check");
    counterAdd(Counter::NeighTriggerChecks);
    const AtomStore &atoms = sim.atoms;
    if (lastBuildPos_.size() != atoms.nlocal())
        return true;
    const double trigger = triggerDistance();
    const double triggerSq = trigger * trigger;

    ThreadPool &pool = ThreadPool::global();
    if (pool.size() == 1) {
        // Serial fast path keeps the early exit.
        for (std::size_t i = 0; i < atoms.nlocal(); ++i) {
            if ((atoms.x[i] - lastBuildPos_[i]).normSq() > triggerSq)
                return true;
        }
        return false;
    }

    // Parallel max-displacement reduction; the boolean outcome is
    // independent of slicing.
    const SliceRange slices(0, atoms.nlocal(), kNeighborGrain);
    std::array<double, SliceRange::kMaxSlices> maxSq{};
    pool.run(slices, [&](std::size_t begin, std::size_t end, int s) {
        double m = 0.0;
        for (std::size_t i = begin; i < end; ++i)
            m = std::max(m, (atoms.x[i] - lastBuildPos_[i]).normSq());
        maxSq[s] = m;
    });
    for (int s = 0; s < slices.count(); ++s) {
        if (maxSq[s] > triggerSq)
            return true;
    }
    return false;
}

void
Neighbor::build(Simulation &sim)
{
    TraceScope trace("neigh", "build");
    buildImpl(sim);
}

void
Neighbor::buildImpl(Simulation &sim)
{
    const AtomStore &atoms = sim.atoms;
    const Box &box = sim.box;
    const std::size_t nlocal = atoms.nlocal();
    const std::size_t nall = atoms.nall();

    const double cut = cutoff + skin;
    require(cut > 0.0, "neighbor build cutoff must be positive");
    const double cutSq = cut * cut;

    ThreadPool &pool = ThreadPool::global();

    // Bin the extended domain (box plus a ghost shell of one cutoff).
    const BinGrid grid = makeBinGrid(box, cut);
    if (pool.size() > 1 && nall >= 4 * kNeighborGrain) {
        countingSortBinsParallel(grid, atoms.x.data(), nall, pool, binOf_,
                                 binStart_, binSliceCount_, binAtoms_);
    } else {
        countingSortBins(grid, atoms.x.data(), nall, binOf_, binStart_,
                         binCursor_, binAtoms_);
    }
    // Readable (masked-off) slots past the last bin for whole-chunk
    // loads; zero ids point at a real record but never pass the
    // lane-validity mask.
    binAtoms_.resize(nall + kSimdPad, 0);

    const bool checkExclusions = !sim.topology.bonds.empty() ||
                                 !sim.topology.angles.empty();

    list_.full = full;
    list_.buildCutoff = cut;
    list_.offsets.assign(nlocal + 1, 0);

    // Raw pointers into the bin structures: the fill loops below append
    // to a member vector, so indexing the members directly would force
    // the compiler to re-load their data pointers every iteration.
    const std::uint32_t *binStart = binStart_.data();
    const std::uint32_t *binAtoms = binAtoms_.data();
    const Vec3 *x = atoms.x.data();

    // W-wide candidate filter width: the dominant cost of the bin walk
    // is the per-candidate r² check. Width 1 keeps the original
    // scalar walk below as the bitwise oracle.
    const int filterW = [] {
        const int dw = simdWidthFor(false);
        if (dw >= 8)
            return 8;
        if (dw >= 4)
            return 4;
        return dw == 2 ? 2 : 0;
    }();
    std::size_t candidates = 0;
    const bool vectorized = filterW >= 2 && !checkExclusions && nlocal > 0;
    if (vectorized) {
        // Fully vectorized build: candidate coordinates are staged once
        // in bin order as three SoA runs, so the per-run chunks are
        // plain contiguous vector loads and accepted lanes compress
        // straight into the CSR rows. The three arrays share one
        // aligned allocation (records() hands out 4 doubles per slot).
        TraceScope filterTrace("neigh", "build_filter");
        const std::size_t stride = nall + kSimdPad;
        double *sx = buildStage_.records(stride);
        double *sy = sx + stride;
        double *sz = sy + stride;
        pool.parallelFor(0, nall, 4 * kNeighborGrain,
                         [&](std::size_t begin, std::size_t end, int) {
                             for (std::size_t k = begin; k < end; ++k) {
                                 const Vec3 &p = x[binAtoms[k]];
                                 sx[k] = p.x;
                                 sy[k] = p.y;
                                 sz[k] = p.z;
                             }
                         });
        for (std::size_t k = nall; k < stride; ++k) {
            sx[k] = 0.0;
            sy[k] = 0.0;
            sz[k] = 0.0;
        }
        const BuildCtx ctx{grid, binStart, binAtoms, sx,
                           sy,   sz,       x,        nlocal, cutSq};
        dispatchBuildRows(filterW, full, list_, ctx, pool,
                          prevNeighborCount_, candidates);
    } else {
        TraceScope filterTrace("neigh", "build_filter");
        buildRowsScalar(sim, list_, grid, binStart, binAtoms, nlocal,
                        cutSq, checkExclusions, filterW, pool,
                        prevNeighborCount_, candidates);
    }
    prevNeighborCount_ = list_.neighbors.size();
    counterAdd(Counter::NeighBuilds);
    counterAdd(Counter::NeighPairs, list_.neighbors.size());
    counterAdd(Counter::NeighBuildCandidates, candidates);
    counterAdd(Counter::NeighBuildAccepted, list_.neighbors.size());

    packLists(sim);

    lastBuildPos_.assign(atoms.x.begin(), atoms.x.begin() + nlocal);
    ++buildCount_;
    ++buildsSinceSort_;
    if (firstBuildStep_ < 0)
        firstBuildStep_ = sim.step;
    lastBuildStep_ = sim.step;
}

void
Neighbor::packLists(Simulation &sim)
{
    if (splitGhostPairs) {
        // Ranks that split interior/boundary work pack each sublist
        // separately. The main list keeps no packing — the force
        // drivers only ever traverse the sublists.
        list_.packedOffsets.clear();
        list_.packedNeighbors.clear();
        list_.padWidth = 0;
        list_.paddedSlots = 0;
        buildSplitLists(sim);
        packPadded(sim, interiorList_);
        packPadded(sim, boundaryList_);
    } else {
        splitBuilt_ = false;
        packPadded(sim, list_);
    }
    // Record the knob values the packing was built with so
    // ensureFreshPacking can detect a stale packing without rebuilding.
    packedTier_ = precisionTier();
    packedWidth_ = simdWidthFor(packedTier_ != Precision::Double);
}

void
Neighbor::buildSplitLists(const Simulation &sim)
{
    const std::uint32_t nlocal =
        static_cast<std::uint32_t>(sim.atoms.nlocal());
    for (NeighborList *sub : {&interiorList_, &boundaryList_}) {
        sub->full = list_.full;
        sub->buildCutoff = list_.buildCutoff;
        sub->offsets.assign(nlocal + 1, 0);
        sub->neighbors.clear();
    }
    interiorList_.neighbors.reserve(list_.neighbors.size());
    for (std::uint32_t i = 0; i < nlocal; ++i) {
        const auto range = list_.range(i);
        for (std::uint32_t k = range.first; k < range.second; ++k) {
            const std::uint32_t j = list_.neighbors[k];
            (j < nlocal ? interiorList_ : boundaryList_)
                .neighbors.push_back(j);
        }
        interiorList_.offsets[i + 1] =
            static_cast<std::uint32_t>(interiorList_.neighbors.size());
        boundaryList_.offsets[i + 1] =
            static_cast<std::uint32_t>(boundaryList_.neighbors.size());
    }
    splitBuilt_ = true;
}

void
Neighbor::ensureFreshPacking(Simulation &sim)
{
    if (buildCount_ == 0 || splitGhostPairs)
        return;
    const Precision tier = precisionTier();
    const int width = simdWidthFor(tier != Precision::Double);
    if (width == packedWidth_ && tier == packedTier_)
        return;
    // A knob changed between builds: re-derive the packing from the
    // plain list.
    packLists(sim);
}

void
Neighbor::packPadded(Simulation &sim, NeighborList &list)
{
    const std::size_t nlocal = sim.atoms.nlocal();
    // Float tiers pack at the float-lane width (twice the double-lane
    // width at a given ISA level, the precision × SIMD synergy); the
    // tier is recorded on the list so kernels dispatch on the geometry
    // that was actually built.
    const Precision tier = precisionTier();
    const int width = simdWidthFor(tier != Precision::Double);
    list.padWidth = width;
    list.packTier = tier;
    if (width == 1 || nlocal == 0) {
        // Nothing to pad: the kernels read the plain CSR in place, so
        // the width-1 path costs no copy of the list.
        list.packedOffsets.clear();
        list.packedNeighbors.clear();
        list.paddedSlots = 0;
        list.sentinel = 0;
        return;
    }
    TraceScope trace("neigh", "pack_padded");

    // The pad slot sits far beyond the box on every axis, so even after
    // atoms drift between rebuilds no real position comes within the
    // build cutoff of it: the kernels' r² mask is false for every
    // sentinel lane and padding contributes exact zeros.
    const Vec3 span = sim.box.lengths();
    const Vec3 padPos = sim.box.hi() + span + Vec3{1.0e6, 1.0e6, 1.0e6};
    list.sentinel =
        static_cast<std::uint32_t>(sim.atoms.ensurePadAtom(padPos));

    const std::uint32_t w = static_cast<std::uint32_t>(width);
    list.packedOffsets.resize(nlocal + 1);
    list.packedOffsets[0] = 0;
    for (std::size_t i = 0; i < nlocal; ++i) {
        const std::uint32_t count = list.offsets[i + 1] - list.offsets[i];
        const std::uint32_t padded = (count + w - 1) / w * w;
        list.packedOffsets[i + 1] = list.packedOffsets[i] + padded;
    }
    list.packedNeighbors.resize(list.packedOffsets[nlocal]);
    const std::uint32_t *src = list.neighbors.data();
    std::uint32_t *dst = list.packedNeighbors.data();
    const std::uint32_t sentinel = list.sentinel;
    ThreadPool::global().parallelFor(
        0, nlocal, kNeighborGrain,
        [&](std::size_t begin, std::size_t end, int) {
            for (std::size_t i = begin; i < end; ++i) {
                const std::uint32_t rowBegin = list.offsets[i];
                const std::uint32_t count = list.offsets[i + 1] - rowBegin;
                std::uint32_t cursor = list.packedOffsets[i];
                const std::uint32_t rowEnd = list.packedOffsets[i + 1];
                for (std::uint32_t k = 0; k < count; ++k)
                    dst[cursor++] = src[rowBegin + k];
                while (cursor < rowEnd)
                    dst[cursor++] = sentinel;
            }
        });
    list.paddedSlots = list.packedNeighbors.size() - list.neighbors.size();
    counterAdd(Counter::NeighPaddedSlots, list.paddedSlots);
}

int
Neighbor::defaultSortEvery()
{
    if (const char *env = std::getenv("MDBENCH_SORT_EVERY")) {
        const int every = std::atoi(env);
        if (every > 0)
            return every;
    }
    return 0;
}

void
Neighbor::computeSortOrder(const Simulation &sim,
                           std::vector<std::uint32_t> &order)
{
    const AtomStore &atoms = sim.atoms;
    const double cut = cutoff + skin;
    require(cut > 0.0, "sort order needs a positive neighbor cutoff");
    // Same grid as the next build, restricted to the owned atoms: the
    // neighbor ids of spatially close atoms become close indices, so
    // the pair-kernel x[j] gathers walk the position array nearly
    // monotonically (LAMMPS `atom_modify sort` / MD-Bench layout).
    const BinGrid grid = makeBinGrid(sim.box, cut);
    countingSortBins(grid, atoms.x.data(), atoms.nlocal(), binOf_,
                     binStart_, binCursor_, binAtoms_);
    order.assign(binAtoms_.begin(), binAtoms_.end());
}

void
Neighbor::noteSortApplied()
{
    buildsSinceSort_ = 0;
    ++sortCount_;
    // Saved build positions are indexed by the pre-sort order; drop
    // them so any trigger check before the next build forces a rebuild
    // instead of comparing unrelated atoms.
    lastBuildPos_.clear();
}

double
Neighbor::averageRebuildInterval() const
{
    if (buildCount_ < 2)
        return 0.0;
    return static_cast<double>(lastBuildStep_ - firstBuildStep_) /
           static_cast<double>(buildCount_ - 1);
}

} // namespace mdbench
