/**
 * @file
 * The portable SIMD compute layer (DESIGN.md §12): wrapper-op semantics
 * of the generic and compiled backends, the padded neighbor packing,
 * kernel agreement of every width with the one-lane (W = 1) oracle,
 * thread-count invariance of the vector kernels, the sort-interaction
 * regression, and the width-selection API.
 */

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "core/suite.h"
#include "forcefield/pair_lj_cut.h"
#include "md/neighbor.h"
#include "md/simulation.h"
#include "obs/counters.h"
#include "util/simd.h"
#include "util/thread_pool.h"

namespace mdbench {
namespace {

using D2 = Simd<double, 2>;
using D4 = Simd<double, 4>;
using I2 = SimdIndex<2>;

/** Restore the environment-default width when a test exits. */
struct WidthGuard
{
    ~WidthGuard() { setSimdWidth(-1); }
};

/** Deterministic displacement so lattice symmetry doesn't hide bugs. */
void
jitter(Simulation &sim)
{
    std::mt19937_64 rng(999);
    std::uniform_real_distribution<double> jig(-0.03, 0.03);
    for (std::size_t i = 0; i < sim.atoms.nlocal(); ++i) {
        sim.atoms.x[i].x += jig(rng);
        sim.atoms.x[i].y += jig(rng);
        sim.atoms.x[i].z += jig(rng);
    }
}

using Builder = std::function<std::unique_ptr<Simulation>()>;

std::unique_ptr<Simulation>
builtLJ()
{
    auto sim = buildLJ(4);
    jitter(*sim);
    sim->thermoEvery = 0;
    sim->setup();
    return sim;
}

std::unique_ptr<Simulation>
builtEAM()
{
    auto sim = buildEAM(4);
    jitter(*sim);
    sim->thermoEvery = 0;
    sim->setup();
    return sim;
}

std::unique_ptr<Simulation>
builtCharmm()
{
    auto sim = buildRhodoProxy(8);
    sim->thermoEvery = 0;
    sim->setup();
    return sim;
}

struct Comparison
{
    double maxForceDiff = 0.0;
    double energyDiff = 0.0; ///< relative to the width-1 reference
};

/** Forces/energy of a width-@p w setup against the W = 1 oracle. */
Comparison
compareAgainstWidthOne(const Builder &build, int w)
{
    setSimdWidth(1);
    auto ref = build();
    setSimdWidth(w);
    auto sim = build();
    Comparison c;
    EXPECT_EQ(ref->atoms.nlocal(), sim->atoms.nlocal());
    for (std::size_t i = 0; i < sim->atoms.nlocal(); ++i) {
        const Vec3 a = sim->atoms.f[i];
        const Vec3 b = ref->atoms.f[i];
        c.maxForceDiff =
            std::max({c.maxForceDiff, std::abs(a.x - b.x),
                      std::abs(a.y - b.y), std::abs(a.z - b.z)});
    }
    const double refEnergy = ref->potentialEnergy();
    c.energyDiff = std::abs(sim->potentialEnergy() - refEnergy) /
                   std::max(1.0, std::abs(refEnergy));
    return c;
}

// -------------------------------------------------------- wrapper ops

TEST(SimdOps, BroadcastLoadStoreRoundTrip)
{
    const double vals[2] = {1.5, -2.25};
    const auto v = D2::loadu(vals);
    double out[2] = {};
    v.storeu(out);
    EXPECT_EQ(out[0], 1.5);
    EXPECT_EQ(out[1], -2.25);
    const D2 b(3.0);
    EXPECT_EQ(b.lane(0), 3.0);
    EXPECT_EQ(b.lane(1), 3.0);
}

TEST(SimdOps, ArithmeticMatchesScalarPerLane)
{
    const double a[2] = {1.75, -0.5};
    const double b[2] = {0.3, 4.0};
    const auto va = D2::loadu(a);
    const auto vb = D2::loadu(b);
    for (int l = 0; l < 2; ++l) {
        EXPECT_EQ((va + vb).lane(l), a[l] + b[l]);
        EXPECT_EQ((va - vb).lane(l), a[l] - b[l]);
        EXPECT_EQ((va * vb).lane(l), a[l] * b[l]);
        EXPECT_EQ((va / vb).lane(l), a[l] / b[l]);
        EXPECT_EQ(D2::sqrt(vb).lane(l), std::sqrt(b[l]));
        EXPECT_EQ(D2::min(va, vb).lane(l),
                  std::min(a[l], b[l]));
        EXPECT_EQ(D2::max(va, vb).lane(l),
                  std::max(a[l], b[l]));
    }
}

TEST(SimdOps, GenericFmaIsDeliberatelyUnfused)
{
    // Chosen so the rounded product differs from the infinitely precise
    // one: (1 + 2^-27)^2 = 1 + 2^-26 + 2^-54, and the last term is
    // below double precision at this magnitude.
    const double a = 1.0 + std::ldexp(1.0, -27);
    const D2 va(a);
    const D2 vc(-1.0);
    const double unfused = (a * a) + (-1.0);
    const double fused = std::fma(a, a, -1.0);
    ASSERT_NE(unfused, fused); // the probe is meaningful
    EXPECT_EQ((D2::fma(va, va, vc)).lane(0), unfused);
    EXPECT_EQ((D2::fms(va, va, D2(1.0))).lane(0),
              (a * a) - 1.0);
}

TEST(SimdOps, MaskBitsSelectAndCombine)
{
    const double a[4] = {1.0, 5.0, 2.0, 7.0};
    const auto va = D4::loadu(a);
    const D4 three(3.0);
    const auto lt = va < three; // lanes 0, 2
    EXPECT_EQ(lt.bits(), 0b0101);
    EXPECT_TRUE(lt.lane(0));
    EXPECT_FALSE(lt.lane(1));
    const auto gt = va > three; // lanes 1, 3
    EXPECT_EQ(gt.bits(), 0b1010);
    EXPECT_EQ((lt & gt).bits(), 0);
    const auto sel = D4::select(lt, va, three);
    EXPECT_EQ(sel.lane(0), 1.0);
    EXPECT_EQ(sel.lane(1), 3.0);
    EXPECT_EQ(sel.lane(2), 2.0);
    EXPECT_EQ(sel.lane(3), 3.0);
    const D4 zero(0.0);
    EXPECT_EQ((zero != zero).bits(), 0);
}

TEST(SimdOps, GatherAndIndexArithmetic)
{
    const double table[8] = {0, 10, 20, 30, 40, 50, 60, 70};
    const int types[4] = {2, 0, 3, 1};
    const std::uint32_t raw[2] = {3, 1};
    const auto idx = I2::load(raw);
    EXPECT_EQ(idx.lane(0), 3u);
    EXPECT_EQ(idx.lane(1), 1u);
    const auto scaled = idx * 2u + 1u;
    EXPECT_EQ(scaled.lane(0), 7u);
    EXPECT_EQ(scaled.lane(1), 3u);
    const auto g = D2::gather(table, scaled);
    EXPECT_EQ(g.lane(0), 70.0);
    EXPECT_EQ(g.lane(1), 30.0);
    const auto t = I2::gather32(types, idx); // types[3], types[1]
    EXPECT_EQ(t.lane(0), 1u);
    EXPECT_EQ(t.lane(1), 0u);
    EXPECT_EQ(I2::min(idx, 2u).lane(0), 2u);
    const D2 x(2.75);
    EXPECT_EQ(D2::truncToIndex(x).lane(0), 2u);
    EXPECT_EQ(D2::fromIndex(idx).lane(0), 3.0);
}

TEST(SimdOps, LoadXyzwTransposesFourDoubleRecords)
{
    // records r: [100r, 100r+1, 100r+2, 100r+3]
    double pack[4 * 5];
    for (int r = 0; r < 5; ++r)
        for (int c = 0; c < 4; ++c)
            pack[4 * r + c] = 100.0 * r + c;
    const std::uint32_t idx[4] = {4, 0, 2, 1};
    D4 x, y, z, w;
    loadXyzw(pack, idx, x, y, z, w);
    for (int l = 0; l < 4; ++l) {
        EXPECT_EQ(x.lane(l), 100.0 * idx[l] + 0);
        EXPECT_EQ(y.lane(l), 100.0 * idx[l] + 1);
        EXPECT_EQ(z.lane(l), 100.0 * idx[l] + 2);
        EXPECT_EQ(w.lane(l), 100.0 * idx[l] + 3);
    }
}

TEST(SimdOps, SumIsAscendingLaneOrder)
{
    // Order-sensitive values: any other association changes the result.
    const double vals[4] = {1e16, 1.0, -1e16, 1.0};
    const auto v = D4::loadu(vals);
    double expected = vals[0];
    for (int l = 1; l < 4; ++l)
        expected += vals[l];
    EXPECT_EQ(v.sum(), expected);
}

TEST(SimdOps, CompiledBackendMatchesGenericSemantics)
{
    // On an ISA build this exercises the intrinsic specializations; on
    // a scalar build it degenerates to the generic template (and the
    // fma check switches to the unfused contract).
    constexpr int W = kSimdCompiledWidth;
    using D = Simd<double, W>;
    std::array<double, W> a{}, b{}, c{};
    std::mt19937_64 rng(42);
    std::uniform_real_distribution<double> dist(0.5, 2.0);
    for (int l = 0; l < W; ++l) {
        a[l] = dist(rng);
        b[l] = dist(rng);
        c[l] = dist(rng);
    }
    const D va = D::loadu(a.data());
    const D vb = D::loadu(b.data());
    const D vc = D::loadu(c.data());
    for (int l = 0; l < W; ++l) {
        EXPECT_EQ((va + vb).lane(l), a[l] + b[l]);
        EXPECT_EQ((va * vb).lane(l), a[l] * b[l]);
        EXPECT_EQ((va / vb).lane(l), a[l] / b[l]);
        EXPECT_EQ(D::sqrt(va).lane(l), std::sqrt(a[l]));
        const double expectFma = W > 1 ? std::fma(a[l], b[l], c[l])
                                       : (a[l] * b[l]) + c[l];
        EXPECT_EQ(D::fma(va, vb, vc).lane(l), expectFma);
    }
    const auto mask = va < vb;
    int expectBits = 0;
    for (int l = 0; l < W; ++l)
        expectBits |= (a[l] < b[l] ? 1 : 0) << l;
    EXPECT_EQ(mask.bits(), expectBits);
}

// ---------------------------------------------------- padded packing

TEST(PackedList, RowsPaddedWithSentinelToWidthMultiple)
{
    WidthGuard guard;
    setSimdWidth(4);
    auto sim = builtLJ();
    const NeighborList &list = sim->neighbor.list();
    ASSERT_EQ(list.padWidth, 4);
    ASSERT_TRUE(list.packedFor(4));
    EXPECT_EQ(sim->atoms.npad(), 1u);
    EXPECT_EQ(list.sentinel, static_cast<std::uint32_t>(sim->atoms.nall()));

    std::size_t padSeen = 0;
    for (std::size_t i = 0; i < sim->atoms.nlocal(); ++i) {
        const auto [pb, pe] = list.packedRange(i);
        const auto [b, e] = list.range(i);
        ASSERT_EQ((pe - pb) % 4, 0u);
        ASSERT_GE(pe - pb, e - b);
        // Real entries first, in plain-CSR order; sentinel afterwards.
        for (std::uint32_t k = b; k < e; ++k)
            ASSERT_EQ(list.packedNeighbors[pb + (k - b)],
                      list.neighbors[k]);
        for (std::uint32_t k = pb + (e - b); k < pe; ++k) {
            ASSERT_EQ(list.packedNeighbors[k], list.sentinel);
            ++padSeen;
        }
    }
    EXPECT_EQ(padSeen, list.paddedSlots);
}

TEST(PackedList, WidthOneReadsThePlainListInPlace)
{
    // No row needs padding at W = 1, so the padded view is the plain
    // CSR itself: no copy of the list and no pad slot.
    WidthGuard guard;
    setSimdWidth(1);
    auto sim = builtLJ();
    const NeighborList &list = sim->neighbor.list();
    ASSERT_TRUE(list.packedFor(1));
    EXPECT_TRUE(list.packedOffsets.empty());
    EXPECT_TRUE(list.packedNeighbors.empty());
    EXPECT_EQ(list.packedOffsetData(), list.offsets.data());
    EXPECT_EQ(list.packedNeighborData(), list.neighbors.data());
    EXPECT_EQ(list.paddedSlots, 0u);
    EXPECT_EQ(list.packedSlots(), list.pairCount());
    EXPECT_EQ(sim->atoms.npad(), 0u);
}

TEST(PackedList, EmptyListLeavesAccumulatorsAtZero)
{
    // A rank that owns no atoms still packs (nothing) and runs the
    // kernel at its width: energy and virial come out exactly zero.
    WidthGuard guard;
    for (int w : {1, 4}) {
        setSimdWidth(w);
        Simulation sim;
        sim.box = Box({0, 0, 0}, {10, 10, 10});
        sim.atoms.setNumTypes(1);
        auto pair = std::make_unique<PairLJCut>(1, 2.5);
        pair->setCoeff(1, 1, 1.0, 1.0);
        sim.pair = std::move(pair);
        sim.thermoEvery = 0;
        sim.setup();
        ASSERT_EQ(sim.atoms.nlocal(), 0u);
        ASSERT_TRUE(sim.neighbor.list().packedFor(w));
        EXPECT_EQ(sim.pair->energy(), 0.0) << "width " << w;
        EXPECT_EQ(sim.pair->virial(), 0.0) << "width " << w;
    }
}

TEST(PackedList, FullListRequestSurvivesSetup)
{
    // Regression: Simulation::setup used to overwrite an explicit full
    // request with the pair style's (half) preference, silently turning
    // every full-list measurement into a half-list one.
    WidthGuard guard;
    setSimdWidth(1);
    auto half = buildLJ(4);
    jitter(*half);
    half->thermoEvery = 0;
    half->setup();
    ASSERT_FALSE(half->neighbor.list().full);

    auto full = buildLJ(4);
    jitter(*full);
    full->thermoEvery = 0;
    full->neighbor.full = true;
    full->setup();
    ASSERT_TRUE(full->neighbor.list().full);
    EXPECT_EQ(full->neighbor.list().pairCount(),
              2 * half->neighbor.list().pairCount());

    // Same physics from both flavors (summation order differs).
    EXPECT_NEAR(full->potentialEnergy(), half->potentialEnergy(),
                1e-9 * std::abs(half->potentialEnergy()));
    for (std::size_t i = 0; i < half->atoms.nlocal(); ++i) {
        EXPECT_NEAR(full->atoms.f[i].x, half->atoms.f[i].x, 1e-9);
        EXPECT_NEAR(full->atoms.f[i].y, half->atoms.f[i].y, 1e-9);
        EXPECT_NEAR(full->atoms.f[i].z, half->atoms.f[i].z, 1e-9);
    }
}

TEST(PackedList, SimdFullListMatchesScalarFullList)
{
    WidthGuard guard;
    auto build = [] {
        auto sim = buildLJ(4);
        jitter(*sim);
        sim->thermoEvery = 0;
        sim->neighbor.full = true;
        sim->setup();
        return sim;
    };
    for (int w : {2, 4, 8, 16}) {
        const Comparison c = compareAgainstWidthOne(build, w);
        EXPECT_LT(c.maxForceDiff, 1e-10) << "width " << w;
        EXPECT_LT(c.energyDiff, 1e-8) << "width " << w;
    }
}

// ------------------------------------------------- kernel agreement

TEST(Kernels, LjCutMatchesScalarAtEveryWidth)
{
    WidthGuard guard;
    for (int w : {2, 4, 8, 16}) {
        const Comparison c = compareAgainstWidthOne(builtLJ, w);
        EXPECT_LT(c.maxForceDiff, 1e-10) << "width " << w;
        EXPECT_LT(c.energyDiff, 1e-8) << "width " << w;
    }
}

TEST(Kernels, EamMatchesScalarAtEveryWidth)
{
    WidthGuard guard;
    for (int w : {2, 4, 8, 16}) {
        const Comparison c = compareAgainstWidthOne(builtEAM, w);
        EXPECT_LT(c.maxForceDiff, 1e-10) << "width " << w;
        EXPECT_LT(c.energyDiff, 1e-8) << "width " << w;
    }
}

TEST(Kernels, CharmmMatchesScalarAtEveryWidth)
{
    WidthGuard guard;
    for (int w : {2, 4, 8, 16}) {
        const Comparison c = compareAgainstWidthOne(builtCharmm, w);
        EXPECT_LT(c.maxForceDiff, 1e-9) << "width " << w;
        EXPECT_LT(c.energyDiff, 1e-6) << "width " << w;
    }
}

TEST(Kernels, SimdForcesAreThreadCountInvariant)
{
    WidthGuard guard;
    const int before = ThreadPool::threads();
    setSimdWidth(4);
    ThreadPool::setThreads(1);
    auto ref = builtLJ();
    ThreadPool::setThreads(3);
    auto sim = builtLJ();
    ThreadPool::setThreads(before);
    ASSERT_EQ(ref->atoms.nlocal(), sim->atoms.nlocal());
    for (std::size_t i = 0; i < sim->atoms.nlocal(); ++i) {
        EXPECT_EQ(ref->atoms.f[i].x, sim->atoms.f[i].x);
        EXPECT_EQ(ref->atoms.f[i].y, sim->atoms.f[i].y);
        EXPECT_EQ(ref->atoms.f[i].z, sim->atoms.f[i].z);
    }
    EXPECT_EQ(ref->pair->energy(), sim->pair->energy());
    EXPECT_EQ(ref->pair->virial(), sim->pair->virial());
}

TEST(Kernels, SortEveryRebuildKeepsPackingConsistent)
{
    // Regression for the padded-packing x sort interaction: every
    // reorder invalidates the packed indices, so each sorted rebuild
    // must repack before the SIMD kernels touch the list again.
    WidthGuard guard;
    auto run = [](int width) {
        setSimdWidth(width);
        auto sim = buildLJ(4);
        jitter(*sim);
        sim->thermoEvery = 0;
        sim->setSortEvery(1);
        sim->setup();
        sim->run(12);
        return sim;
    };
    auto oracle = run(1);
    auto simd = run(4);
    const NeighborList &list = simd->neighbor.list();
    ASSERT_TRUE(list.packedFor(4));
    for (std::size_t i = 0; i < simd->atoms.nlocal(); ++i) {
        const auto [pb, pe] = list.packedRange(i);
        for (std::uint32_t k = pb; k < pe; ++k)
            ASSERT_LE(list.packedNeighbors[k], list.sentinel);
    }
    EXPECT_NEAR(simd->potentialEnergy(), oracle->potentialEnergy(),
                1e-8 * std::abs(oracle->potentialEnergy()));
}

// ------------------------------------------------------ width API

TEST(WidthApi, OverrideAndRestore)
{
    WidthGuard guard;
    setSimdWidth(2);
    EXPECT_EQ(simdWidth(), 2);
    setSimdWidth(-1);
    EXPECT_EQ(simdWidth(), simdDefaultWidth());
    // Unsupported widths, 0 included, fall back to the default.
    for (int bad : {0, 3}) {
        setSimdWidth(2);
        setSimdWidth(bad);
        EXPECT_EQ(simdWidth(), simdDefaultWidth()) << "width " << bad;
    }
    EXPECT_GE(simdDefaultWidth(), 1);
    EXPECT_GE(simdDefaultFloatWidth(), 1);
}

TEST(WidthApi, BackendNamesAreConsistent)
{
    // The ISA specializations compiled into this build: an AVX-512
    // build also compiles the AVX2 backend, so both levels appear.
    // Float lanes at a given ISA level come in twice the double count.
    std::map<int, std::string> doubleBackends, floatBackends;
    if (kSimdCompiledWidth >= 4) {
        doubleBackends[4] = "avx2";
        floatBackends[8] = "avx2";
    }
    if (kSimdCompiledWidth >= 8) {
        doubleBackends[8] = "avx512";
        floatBackends[16] = "avx512";
    }
    for (int w : {1, 2, 4, 8, 16}) {
        ASSERT_TRUE(simdWidthSupported(w));
        const auto d = doubleBackends.find(w);
        EXPECT_EQ(simdBackendName(w),
                  d == doubleBackends.end() ? "generic" : d->second)
            << "width " << w;
        const auto f = floatBackends.find(w);
        EXPECT_EQ(simdBackendName(w, true),
                  f == floatBackends.end() ? "generic" : f->second)
            << "float width " << w;
    }
    EXPECT_FALSE(simdWidthSupported(0));
    EXPECT_FALSE(simdWidthSupported(3));
    EXPECT_FALSE(simdWidthSupported(32));
}

} // namespace
} // namespace mdbench
