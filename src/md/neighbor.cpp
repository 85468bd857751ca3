#include "md/neighbor.h"

#include <algorithm>
#include <array>
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

/**
 * Bins per build cutoff along each axis. Bins are at least half the
 * cutoff + skin wide, so every neighbor of an atom lies within two bins
 * of its own and the stencil spans 5 bins per axis (LAMMPS's default
 * half-cutoff binning): 75 bins for half lists, 125 for full lists,
 * about a third of the candidate volume of a 27-bin stencil over
 * cutoff-wide bins.
 */
constexpr int kStencilReach = 2;

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
    const double minBin = cut / kStencilReach;
    for (int axis = 0; axis < 3; ++axis) {
        grid.nb[axis] = std::max(1, static_cast<int>(lens[axis] / minBin));
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
 * owned atoms only), so both traverse identical bin geometry. Serial
 * at every thread count: a threaded variant needs a slices × bins
 * histogram, which at half-cutoff bins costs more memory traffic than
 * the scatter it parallelizes.
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
 * Half-list ownership rule: true when @p b follows @p a in (z, y, x)
 * lexicographic order, in which case the atom at @p a stores the pair.
 * One rule for owned and ghost partners alike. Of the two mirrored
 * copies of a pair that crosses a periodic boundary (ghost j seen from
 * i at displacement d, ghost i seen from j at −d) exactly one is
 * lexicographically positive, so the rule needs no bins commensurate
 * with the box; an owned–owned pair compares the same two positions
 * from both sides. It also rejects i itself, and only atoms in bins at
 * or above i's z bin can pass it, which is what lets the half stencil
 * skip the dz < 0 planes. The vectorized filter evaluates the same
 * compares as lane masks.
 */
inline bool
lexAfter(const mdbench::Vec3 &b, const mdbench::Vec3 &a)
{
    if (b.z != a.z)
        return b.z > a.z;
    if (b.y != a.y)
        return b.y > a.y;
    return b.x > a.x;
}

/**
 * W-wide distance test of one run chunk: bit l of the result is set
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

/**
 * The stencil of one atom as contiguous binAtoms runs. flatten() is
 * x-fastest, so the dx = −2..2 bins of every (dy, dz) row are one
 * dense range of bin ids and therefore one dense range of bin-ordered
 * slots: at most 15 runs for the half stencil (dz = 0..2) and 25 for
 * the full one (dz = −2..2), instead of 75 or 125 bins. Both build
 * bodies walk the runs in this order, so they visit the same
 * candidates in the same order.
 */
struct StencilRuns
{
    static constexpr int kMaxRuns = (2 * kStencilReach + 1) *
                                    (2 * kStencilReach + 1);
    std::array<std::uint32_t, kMaxRuns> lo; ///< first slot of each run
    std::array<std::uint32_t, kMaxRuns> hi; ///< one past the last slot
    int count = 0;
    std::uint32_t total = 0; ///< candidate slots across all runs
};

template <bool Full>
inline StencilRuns
stencilRuns(const BinGrid &grid, const std::uint32_t *binStart,
            const mdbench::Vec3 &xi)
{
    const auto bi = grid.cellOf(xi);
    const int *nb = grid.nb;
    const int x0 = std::max(bi[0] - kStencilReach, 0);
    const int x1 = std::min(bi[0] + kStencilReach, nb[0] - 1);
    const int y0 = std::max(bi[1] - kStencilReach, 0);
    const int y1 = std::min(bi[1] + kStencilReach, nb[1] - 1);
    const int z0 = Full ? std::max(bi[2] - kStencilReach, 0) : bi[2];
    const int z1 = std::min(bi[2] + kStencilReach, nb[2] - 1);
    const std::size_t width = static_cast<std::size_t>(x1 - x0) + 1;
    StencilRuns runs;
    for (int bz = z0; bz <= z1; ++bz) {
        for (int by = y0; by <= y1; ++by) {
            const std::size_t bin = grid.flatten(x0, by, bz);
            const std::uint32_t beg = binStart[bin];
            const std::uint32_t end = binStart[bin + width];
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

/** Everything a row fill reads, hoisted once per build. */
struct BuildCtx
{
    const BinGrid &grid;
    const std::uint32_t *binStart; ///< CSR bin offsets
    const std::uint32_t *binAtoms; ///< bin-ordered atom ids (+ pad)
    const double *sx;              ///< bin-ordered x (vectorized body)
    const double *sy;              ///< bin-ordered y (vectorized body)
    const double *sz;              ///< bin-ordered z (vectorized body)
    const mdbench::Vec3 *x;        ///< positions in atom order
    double cutSq;
};

/**
 * Fully vectorized CSR row fill for atom @p i (the exclusion-free
 * path): every stencil candidate is tested in a W-wide chunk of the
 * bin-ordered staging — contiguous transpose loads, no gathers — and
 * the whole inclusion predicate (distance, then the half-list (z, y, x)
 * ownership rule of lexAfter or the full-list self-exclusion) is
 * evaluated as lane masks. Accepted lanes append through compressStore
 * in ascending lane order, which is exactly the scalar walk's emit
 * order, so the produced rows are identical to the scalar oracle's
 * (modulo the documented 1-ulp ISA fma contraction at the build
 * cutoff).
 *
 * Chunks start at each run's first slot and lanes are independent, so
 * the result does not depend on W's chunk phase; lanes past the run
 * end read the next bin's staged records (or the pad at the array
 * end) and are masked off by the lane-index compare before they can
 * contribute.
 *
 * With Fill unset only the accepted count is computed (the sizing pass
 * of the first threaded build).
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
            // Half list: lexAfter(xj, xi) lane for lane, with the same
            // ±0.0-safe equal compares.
            const M after = (zj > ziV) |
                            ((zj == ziV) &
                             ((yj > yiV) | ((yj == yiV) & (xj > xiV))));
            inc = dist & after;
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

/** Row source of the vectorized body (see fillRows). */
template <int W, bool Full>
struct SimdRows
{
    const BuildCtx &ctx;

    StencilRuns
    runs(std::size_t i) const
    {
        return stencilRuns<Full>(ctx.grid, ctx.binStart, ctx.x[i]);
    }

    template <bool Fill>
    std::uint32_t
    fill(std::size_t i, const StencilRuns &r, std::uint32_t *dst) const
    {
        return fillRowSimd<W, Full, Fill>(ctx, i, r, dst);
    }
};

/**
 * CSR fill shared by both build bodies. @p rows supplies each row's
 * stencil runs (runs(i), whose total bounds the row length) and the
 * row itself (fill<true>(i, runs, dst) writes it and returns its
 * length; fill<false> only counts).
 *
 * Serially the rows append at one cursor into the previous payload,
 * which grows kGrowRows row bounds at a time when it runs out. Threaded,
 * the fill is a single pass: each slice of the fixed SliceRange
 * partition owns a contiguous i range and appends into its own region
 * of list.neighbors, sized from that slice's previous count plus
 * 1/kRegionHeadroom (the counts come from the previous offsets while
 * the row count is unchanged, from the previous pairs per row
 * otherwise, and from an exact counting pass on the first build). A
 * slice whose next row might not fit appends the rest of its rows to
 * its own @p spill buffer. A serial pass then slides the regions
 * together in place, appends the spills and rebases the offsets, so
 * rows abut exactly, the list never exists twice, and it is bitwise
 * the serial one at any thread count — compressStore's exact-popcount
 * contract is what lets rows abut inside a region.
 */
/**
 * The serial fill grows the payload by this many row bounds at a time:
 * resize() zero-fills, so growing geometrically would make resident
 * pages the list never uses.
 */
constexpr std::size_t kGrowRows = 16;

/** Threaded fill regions hold the previous count plus 1/this. */
constexpr std::size_t kRegionHeadroom = 16;

template <class Rows>
void
fillRows(NeighborList &list, std::size_t nlocal, ThreadPool &pool,
         const Rows &rows, std::vector<std::uint32_t> *spill,
         std::size_t &candidates)
{
    const std::size_t prevCount = list.neighbors.size();
    const std::size_t prevRows =
        list.offsets.empty() ? 0 : list.offsets.size() - 1;
    if (pool.size() == 1 || nlocal < 2 * kNeighborGrain) {
        list.offsets.resize(nlocal + 1);
        list.offsets[0] = 0;
        std::size_t cursor = 0;
        for (std::size_t i = 0; i < nlocal; ++i) {
            const StencilRuns runs = rows.runs(i);
            candidates += runs.total;
            if (list.neighbors.size() < cursor + runs.total) {
                list.neighbors.resize(cursor +
                                      kGrowRows * std::size_t{runs.total});
            }
            cursor += rows.template fill<true>(
                i, runs, list.neighbors.data() + cursor);
            list.offsets[i + 1] = static_cast<std::uint32_t>(cursor);
        }
        list.neighbors.resize(cursor);
        return;
    }

    const SliceRange slices(0, nlocal, kNeighborGrain);
    const std::size_t nslices = static_cast<std::size_t>(slices.count());
    constexpr std::size_t kMax = SliceRange::kMaxSlices;
    std::array<std::size_t, kMax> cap{};
    const bool exact = prevRows == 0;
    if (!exact) {
        for (std::size_t s = 0; s < nslices; ++s) {
            const std::size_t b = slices.begin(static_cast<int>(s));
            const std::size_t e = slices.end(static_cast<int>(s));
            cap[s] = prevRows == nlocal
                         ? list.offsets[e] - list.offsets[b]
                         : prevCount * (e - b) / prevRows;
        }
    } else {
        pool.run(slices, [&](std::size_t begin, std::size_t end, int s) {
            std::size_t n = 0;
            for (std::size_t i = begin; i < end; ++i)
                n += rows.template fill<false>(i, rows.runs(i), nullptr);
            cap[static_cast<std::size_t>(s)] = n;
        });
    }
    // Region starts. Exact first-build sizes need no headroom, and
    // their rows cannot overflow (each fill writes exactly its count).
    std::array<std::size_t, kMax + 1> region{};
    for (std::size_t s = 0; s < nslices; ++s) {
        if (!exact)
            cap[s] += cap[s] / kRegionHeadroom;
        region[s + 1] = region[s] + cap[s];
    }
    list.offsets.resize(nlocal + 1);
    list.offsets[0] = 0;
    if (list.neighbors.capacity() < region[nslices]) {
        // The old payload is dead: free it before allocating, instead of
        // letting resize() copy it and hold both lists at once.
        list.neighbors = std::vector<std::uint32_t>();
        list.neighbors.reserve(region[nslices] + region[nslices] / 8);
    }
    list.neighbors.resize(region[nslices]);

    std::array<std::size_t, kMax> kept{};
    std::array<std::size_t, kMax> spilled{};
    std::array<std::size_t, kMax> sliceCand{};
    std::uint32_t *nbrs = list.neighbors.data();
    std::uint32_t *offs = list.offsets.data();
    pool.run(slices, [&](std::size_t begin, std::size_t end, int si) {
        const std::size_t s = static_cast<std::size_t>(si);
        std::uint32_t *base = nbrs + region[s];
        std::vector<std::uint32_t> &over = spill[s];
        std::size_t inRegion = 0;
        std::size_t inSpill = 0;
        bool spilling = false;
        std::size_t cand = 0;
        for (std::size_t i = begin; i < end; ++i) {
            const StencilRuns runs = rows.runs(i);
            cand += runs.total;
            spilling = spilling ||
                       (!exact && inRegion + runs.total > cap[s]);
            if (!spilling) {
                inRegion += rows.template fill<true>(i, runs,
                                                     base + inRegion);
            } else {
                if (over.size() < inSpill + runs.total) {
                    over.resize(
                        std::max(2 * over.size(), inSpill + runs.total));
                }
                inSpill += rows.template fill<true>(i, runs,
                                                    over.data() + inSpill);
            }
            // Slice-relative until the regions are packed below.
            offs[i + 1] = static_cast<std::uint32_t>(inRegion + inSpill);
        }
        kept[s] = inRegion;
        spilled[s] = inSpill;
        sliceCand[s] = cand;
    });

    // Pack: every slice's final start is the running total of the
    // slices before it. Blocks that move left go in ascending order and
    // blocks that move right (behind a spill) in descending order, so
    // no block overwrites one that has not moved yet; spills land last,
    // in the gaps the moves leave.
    std::array<std::size_t, kMax + 1> start{};
    for (std::size_t s = 0; s < nslices; ++s)
        start[s + 1] = start[s] + kept[s] + spilled[s];
    const std::size_t total = start[nslices];
    if (total > list.neighbors.size())
        list.neighbors.resize(total);
    nbrs = list.neighbors.data();
    const auto move = [&](std::size_t s) {
        std::memmove(nbrs + start[s], nbrs + region[s],
                     kept[s] * sizeof(std::uint32_t));
    };
    for (std::size_t s = 0; s < nslices; ++s) {
        if (start[s] < region[s])
            move(s);
    }
    for (std::size_t s = nslices; s-- > 0;) {
        if (start[s] > region[s])
            move(s);
    }
    for (std::size_t s = 0; s < nslices; ++s) {
        if (spilled[s] > 0) {
            std::memcpy(nbrs + start[s] + kept[s], spill[s].data(),
                        spilled[s] * sizeof(std::uint32_t));
        }
        const std::uint32_t shift = static_cast<std::uint32_t>(start[s]);
        const int si = static_cast<int>(s);
        for (std::size_t i = slices.begin(si); i < slices.end(si); ++i)
            offs[i + 1] += shift;
        candidates += sliceCand[s];
    }
    list.neighbors.resize(total);
}

/**
 * Scalar stencil-walk rows: the bitwise oracle (width 1, every
 * default-build rebuild) and the only body for systems with exclusions
 * (the exclusion probe is a hash lookup, not mask algebra). Each row
 * walks the same stencil runs as the vectorized body, tests the
 * distance first and then the ownership rule (lexAfter for half lists,
 * j ≠ i for full ones), and finally the exclusions.
 *
 * With @p Prefilter a W-wide distance mask screens whole run chunks
 * first and only passing lanes take the scalar checks, in ascending
 * lane order, so the emit order is unchanged. It is compiled in only
 * when a width is active so the width-1 oracle keeps the plain loop
 * shape — the dead dispatch alone costs ~15% at 500k atoms.
 */
template <bool Prefilter>
struct ScalarRows
{
    const BinGrid &grid;
    const std::uint32_t *binStart;
    const std::uint32_t *binAtoms;
    const Vec3 *x;
    const std::int64_t *tag;
    const Topology &topology;
    double cutSq;
    bool full;
    bool checkExclusions;
    int filterW;

    StencilRuns
    runs(std::size_t i) const
    {
        return full ? stencilRuns<true>(grid, binStart, x[i])
                    : stencilRuns<false>(grid, binStart, x[i]);
    }

    template <bool Fill>
    std::uint32_t
    fill(std::size_t i, const StencilRuns &r, std::uint32_t *dst) const
    {
        const Vec3 xi = x[i];
        std::uint32_t n = 0;
        // Rules after the distance test, shared by both loops below.
        const auto keep = [&](std::uint32_t ju, const Vec3 &xj) {
            if (full ? ju == i : !lexAfter(xj, xi))
                return;
            if (checkExclusions && topology.excluded(tag[i], tag[ju]))
                return;
            if constexpr (Fill)
                dst[n] = ju;
            ++n;
        };
        for (int run = 0; run < r.count; ++run) {
            const std::uint32_t runEnd = r.hi[static_cast<std::size_t>(run)];
            std::uint32_t idx = r.lo[static_cast<std::size_t>(run)];
            if constexpr (Prefilter) {
                static_assert(sizeof(Vec3) == 3 * sizeof(double));
                const double *xd = reinterpret_cast<const double *>(x);
                const auto filtered = [&](auto widthTag) {
                    constexpr int W = decltype(widthTag)::value;
                    for (; idx + W <= runEnd; idx += W) {
                        int mask = candidateDistanceMask<W>(
                            xd, binAtoms + idx, xi, cutSq);
                        for (; mask; mask &= mask - 1) {
                            const std::uint32_t ju = binAtoms
                                [idx + static_cast<std::uint32_t>(
                                           std::countr_zero(
                                               static_cast<unsigned>(mask)))];
                            keep(ju, x[ju]);
                        }
                    }
                };
                if (filterW == 8)
                    filtered(std::integral_constant<int, 8>{});
                else if (filterW == 4)
                    filtered(std::integral_constant<int, 4>{});
                else
                    filtered(std::integral_constant<int, 2>{});
            }
            for (; idx < runEnd; ++idx) {
                const std::uint32_t ju = binAtoms[idx];
                const Vec3 xj = x[ju];
                if ((xj - xi).normSq() < cutSq)
                    keep(ju, xj);
            }
        }
        return n;
    }
};

/**
 * The scalar body, kept out of line and marked noinline for the same
 * reason Neighbor::buildImpl is: inlined next to the vectorized
 * staging, it would push gcc's function-size estimate past its
 * large-function limits and the hot candidate loop would stop being
 * unrolled (~2x on the serial 500k-atom build).
 */
template <bool Prefilter>
[[gnu::noinline]] void
buildRowsScalarImpl(const ScalarRows<Prefilter> &rows, NeighborList &list,
                    std::size_t nlocal, ThreadPool &pool,
                    std::vector<std::uint32_t> *spill,
                    std::size_t &candidates)
{
    fillRows(list, nlocal, pool, rows, spill, candidates);
}

/** Width × flavor dispatch for the vectorized build. */
void
dispatchBuildRows(int filterW, bool full, NeighborList &list,
                  const BuildCtx &ctx, std::size_t nlocal, ThreadPool &pool,
                  std::vector<std::uint32_t> *spill, std::size_t &candidates)
{
    auto run = [&](auto widthTag, auto fullTag) {
        const SimdRows<decltype(widthTag)::value, decltype(fullTag)::value>
            rows{ctx};
        fillRows(list, nlocal, pool, rows, spill, candidates);
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
    countingSortBins(grid, atoms.x.data(), nall, binOf_, binStart_,
                     binCursor_, binAtoms_);
    // Readable (masked-off) slots past the last bin for whole-chunk
    // loads; zero ids point at a real record but never pass the
    // lane-validity mask.
    binAtoms_.resize(nall + kSimdPad, 0);

    const bool checkExclusions = !sim.topology.bonds.empty() ||
                                 !sim.topology.angles.empty();

    // The fill sizes its payload from the previous list's offsets, so
    // they are replaced only inside fillRows.
    list_.full = full;
    list_.buildCutoff = cut;

    // Raw pointers into the bin structures: the fill loops below append
    // to a member vector, so indexing the members directly would force
    // the compiler to re-load their data pointers every iteration.
    const std::uint32_t *binStart = binStart_.data();
    const std::uint32_t *binAtoms = binAtoms_.data();
    const Vec3 *x = atoms.x.data();

    // W-wide candidate filter width: the dominant cost of the bin walk
    // is the per-candidate r² check. Width 1 keeps the scalar walk as
    // the bitwise oracle.
    const int filterW = [] {
        const int dw = simdWidthFor(false);
        if (dw >= 8)
            return 8;
        if (dw >= 4)
            return 4;
        return dw == 2 ? 2 : 0;
    }();
    std::size_t candidates = 0;
    spill_.resize(SliceRange::kMaxSlices);
    TraceScope filterTrace("neigh", "build_filter");
    if (filterW >= 2 && !checkExclusions && nlocal > 0) {
        // Fully vectorized build: candidate coordinates are staged once
        // in bin order as three SoA runs, so the per-run chunks are
        // plain contiguous vector loads and accepted lanes compress
        // straight into the CSR rows. The three arrays share one
        // aligned allocation (records() hands out 4 doubles per slot).
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
        const BuildCtx ctx{grid, binStart, binAtoms, sx, sy, sz, x, cutSq};
        dispatchBuildRows(filterW, full, list_, ctx, nlocal, pool,
                          spill_.data(), candidates);
    } else if (filterW >= 2) {
        const ScalarRows<true> rows{grid,  binStart, binAtoms,
                                    x,     atoms.tag.data(),
                                    sim.topology, cutSq, full,
                                    checkExclusions, filterW};
        buildRowsScalarImpl(rows, list_, nlocal, pool, spill_.data(),
                            candidates);
    } else {
        const ScalarRows<false> rows{grid,  binStart, binAtoms,
                                     x,     atoms.tag.data(),
                                     sim.topology, cutSq, full,
                                     checkExclusions, filterW};
        buildRowsScalarImpl(rows, list_, nlocal, pool, spill_.data(),
                            candidates);
    }
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
    // The build's half-cutoff grid (LAMMPS's default sort bin size is
    // also half the neighbor cutoff), restricted to the owned atoms:
    // the neighbor ids of spatially close atoms become close indices,
    // so the pair-kernel x[j] gathers walk the position array nearly
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
