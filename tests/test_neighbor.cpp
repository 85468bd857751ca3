/**
 * @file
 * Neighbor-list correctness: brute-force cross-checks, half/full list
 * invariants, skin/rebuild behaviour, and ghost construction.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <numbers>
#include <set>
#include <utility>
#include <vector>

#include "core/suite.h"
#include "md/lattice.h"
#include "md/neighbor.h"
#include "md/simulation.h"
#include "md/velocity.h"
#include "forcefield/pair_lj_cut.h"
#include "md/fix_nve.h"
#include "obs/counters.h"
#include "util/rng.h"
#include "util/simd.h"
#include "util/thread_pool.h"

namespace mdbench {
namespace {

/** Place n atoms at random positions in a cubic box of side length. */
void
randomSystem(Simulation &sim, int n, double length, std::uint64_t seed)
{
    sim.box = Box({0, 0, 0}, {length, length, length});
    sim.atoms.setNumTypes(1);
    Rng rng(seed);
    for (int i = 0; i < n; ++i)
        sim.atoms.addAtom(i + 1, 1,
                          {rng.uniform(0, length), rng.uniform(0, length),
                           rng.uniform(0, length)});
}

/** All minimum-image pairs within cutoff, as sorted-tag pairs. */
std::multiset<std::pair<std::int64_t, std::int64_t>>
bruteForcePairs(const Simulation &sim, double cutoff)
{
    std::multiset<std::pair<std::int64_t, std::int64_t>> pairs;
    const std::size_t n = sim.atoms.nlocal();
    const double cutSq = cutoff * cutoff;
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = i + 1; j < n; ++j) {
            const Vec3 d =
                sim.box.minimumImage(sim.atoms.x[i] - sim.atoms.x[j]);
            if (d.normSq() < cutSq)
                pairs.insert({std::min(sim.atoms.tag[i], sim.atoms.tag[j]),
                              std::max(sim.atoms.tag[i], sim.atoms.tag[j])});
        }
    }
    return pairs;
}

/** Pairs stored in a half list, as sorted-tag pairs. */
std::multiset<std::pair<std::int64_t, std::int64_t>>
halfListPairs(const Simulation &sim)
{
    std::multiset<std::pair<std::int64_t, std::int64_t>> pairs;
    const NeighborList &list = sim.neighbor.list();
    for (std::size_t i = 0; i < sim.atoms.nlocal(); ++i) {
        const auto [begin, end] = list.range(i);
        for (std::uint32_t k = begin; k < end; ++k) {
            const std::uint32_t j = list.neighbors[k];
            pairs.insert({std::min(sim.atoms.tag[i], sim.atoms.tag[j]),
                          std::max(sim.atoms.tag[i], sim.atoms.tag[j])});
        }
    }
    return pairs;
}

TEST(Neighbor, HalfListMatchesBruteForce)
{
    Simulation sim;
    randomSystem(sim, 200, 8.0, 321);
    sim.neighbor.cutoff = 1.5;
    sim.neighbor.skin = 0.0;
    sim.comm->exchange(sim);
    sim.comm->borders(sim);
    sim.neighbor.build(sim);

    // Box side (8.0) is > 2x cutoff, so each physical pair appears once.
    EXPECT_EQ(halfListPairs(sim), bruteForcePairs(sim, 1.5));
}

TEST(Neighbor, HalfListMatchesBruteForceManySeeds)
{
    for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
        Simulation sim;
        randomSystem(sim, 120, 6.5, seed);
        sim.neighbor.cutoff = 1.8;
        sim.neighbor.skin = 0.0;
        sim.comm->exchange(sim);
        sim.comm->borders(sim);
        sim.neighbor.build(sim);
        EXPECT_EQ(halfListPairs(sim), bruteForcePairs(sim, 1.8))
            << "seed " << seed;
    }
}

TEST(Neighbor, FullListStoresEachPairTwice)
{
    Simulation sim;
    randomSystem(sim, 150, 7.0, 77);
    sim.neighbor.cutoff = 1.5;
    sim.neighbor.skin = 0.0;
    sim.neighbor.full = true;
    sim.comm->exchange(sim);
    sim.comm->borders(sim);
    sim.neighbor.build(sim);

    const auto brute = bruteForcePairs(sim, 1.5);
    const auto full = halfListPairs(sim); // collects every stored entry
    EXPECT_EQ(full.size(), 2 * brute.size());
    for (const auto &pair : brute)
        EXPECT_EQ(full.count(pair), 2u) << pair.first << "," << pair.second;
}

TEST(Neighbor, SkinGrowsList)
{
    Simulation sim;
    randomSystem(sim, 300, 8.0, 5);
    sim.neighbor.cutoff = 1.5;
    sim.neighbor.skin = 0.0;
    sim.comm->exchange(sim);
    sim.comm->borders(sim);
    sim.neighbor.build(sim);
    const std::size_t tight = sim.neighbor.list().pairCount();

    sim.neighbor.skin = 0.5;
    sim.comm->borders(sim);
    sim.neighbor.build(sim);
    EXPECT_GT(sim.neighbor.list().pairCount(), tight);
}

TEST(Neighbor, TriggerFiresOnlyAfterHalfSkinMotion)
{
    Simulation sim;
    randomSystem(sim, 50, 10.0, 9);
    sim.neighbor.cutoff = 1.5;
    sim.neighbor.skin = 0.4;
    sim.comm->exchange(sim);
    sim.comm->borders(sim);
    sim.neighbor.build(sim);

    EXPECT_FALSE(sim.neighbor.checkTrigger(sim));
    sim.atoms.x[0].x += 0.19; // just under skin/2
    EXPECT_FALSE(sim.neighbor.checkTrigger(sim));
    sim.atoms.x[0].x += 0.02; // crosses skin/2
    EXPECT_TRUE(sim.neighbor.checkTrigger(sim));
}

TEST(Neighbor, NeighborsPerAtomLJMelt)
{
    // LJ melt at rho* = 0.8442 with cutoff 2.5 sigma has ~55 neighbors
    // per atom within the cutoff (paper Table 2).
    Simulation sim;
    buildFcc(sim, 8, 8, 8, fccLatticeConstant(0.8442));
    sim.neighbor.cutoff = 2.5;
    sim.neighbor.skin = 0.0;
    sim.comm->exchange(sim);
    sim.comm->borders(sim);
    sim.neighbor.build(sim);
    EXPECT_NEAR(sim.neighbor.list().neighborsPerAtom(), 55.0, 8.0);
}

TEST(Neighbor, GhostCountScalesWithSurface)
{
    Simulation sim;
    buildFcc(sim, 6, 6, 6, 1.6);
    sim.neighbor.cutoff = 2.0;
    sim.neighbor.skin = 0.3;
    sim.comm->exchange(sim);
    sim.comm->borders(sim);
    EXPECT_GT(sim.atoms.nghost(), 0u);
    // Ghost shell thickness cut on each face: fraction roughly
    // (1 + 2 cut/L)^3 - 1 of the owned atoms.
    const double cut = sim.commCutoff();
    const double ratio = std::pow(1.0 + 2.0 * cut / sim.box.lengths().x, 3) -
                         1.0;
    EXPECT_NEAR(static_cast<double>(sim.atoms.nghost()) /
                    static_cast<double>(sim.atoms.nlocal()),
                ratio, 0.35 * ratio);
}

/**
 * Build the list of @p sim twice (the second build sizes its payload
 * from the first, the steady-state path) at the given knobs and check
 * it against brute force: a half list holds every pair within the
 * build cutoff once, a full list twice.
 */
void
expectListMatchesBruteForce(Simulation &sim, bool full)
{
    const double cut = sim.neighbor.cutoff + sim.neighbor.skin;
    sim.neighbor.full = full;
    sim.comm->exchange(sim);
    sim.comm->borders(sim);
    sim.neighbor.build(sim);
    sim.neighbor.build(sim);
    const auto brute = bruteForcePairs(sim, cut);
    ASSERT_FALSE(brute.empty());
    const auto stored = halfListPairs(sim); // every stored entry
    if (!full) {
        EXPECT_EQ(stored, brute);
        return;
    }
    EXPECT_EQ(stored.size(), 2 * brute.size());
    for (const auto &pair : brute)
        EXPECT_EQ(stored.count(pair), 2u) << pair.first << "," << pair.second;
}

TEST(Neighbor, OwnershipRuleExactOnLatticesAndOddBoxes)
{
    // Random positions never tie, so they never exercise the (z, y, x)
    // ownership rule past its first compare. An fcc lattice has whole
    // planes of equal z and rows of equal y; with a = 2 and a build
    // cutoff of 2, the bins are exactly 1 wide and every lattice plane
    // lies on a bin face. The other cases use box sides that are no
    // multiple of the bin size, one of them non-cubic.
    struct Case
    {
        const char *name;
        std::function<void(Simulation &)> make;
        double cutoff;
        double skin;
    };
    const std::vector<Case> cases = {
        {"fcc on bin faces",
         [](Simulation &sim) { buildFcc(sim, 6, 6, 6, 2.0); }, 2.0, 0.0},
        {"fcc second shell",
         [](Simulation &sim) { buildFcc(sim, 6, 6, 6, 2.0); }, 1.9, 0.35},
        {"fcc non-cubic",
         [](Simulation &sim) { buildFcc(sim, 5, 6, 7, 1.6796); }, 1.75,
         0.3},
        {"random non-cubic",
         [](Simulation &sim) {
             sim.box = Box({0, 0, 0}, {7.3, 6.1, 8.7});
             sim.atoms.setNumTypes(1);
             Rng rng(99);
             for (int i = 0; i < 600; ++i)
                 sim.atoms.addAtom(i + 1, 1,
                                   {rng.uniform(0, 7.3), rng.uniform(0, 6.1),
                                    rng.uniform(0, 8.7)});
         },
         1.7, 0.25},
    };
    const int before = ThreadPool::threads();
    for (const Case &c : cases) {
        for (const bool full : {false, true}) {
            for (const int threads : {1, 4}) {
                for (const int width : {1, 4}) {
                    SCOPED_TRACE(testing::Message()
                                 << c.name << " full=" << full
                                 << " threads=" << threads
                                 << " width=" << width);
                    ThreadPool::setThreads(threads);
                    setSimdWidth(width);
                    Simulation sim;
                    c.make(sim);
                    ASSERT_GE(sim.atoms.nlocal(), 256u); // threaded fill
                    sim.neighbor.cutoff = c.cutoff;
                    sim.neighbor.skin = c.skin;
                    expectListMatchesBruteForce(sim, full);
                    setSimdWidth(-1);
                }
            }
        }
    }
    ThreadPool::setThreads(before);
}

TEST(Neighbor, HalfStencilKeepsCandidateRatioLow)
{
    // Timing-free guard on the build's cost: candidates examined per
    // stored pair. A 27-bin stencil over bins at least cutoff + skin
    // wide examines at least 27 cut³ per (2π/3) cut³ of stored half
    // list on a uniform system, so no such build gets below this
    // bound; the half stencil over half-cutoff bins does.
    resetCounters();
    auto sim = buildLJ(10);
    sim->thermoEvery = 0;
    sim->setup();
    const double candidates =
        static_cast<double>(counterValue(Counter::NeighBuildCandidates));
    const double accepted =
        static_cast<double>(counterValue(Counter::NeighBuildAccepted));
    ASSERT_GT(accepted, 0.0);
    EXPECT_LT(candidates / accepted, 27.0 / (2.0 * std::numbers::pi / 3.0));
    resetCounters();
}

TEST(Neighbor, OverflowingSliceRegionsSpillIntoExactRows)
{
    // The threaded fill sizes each slice's region from the previous
    // build. Growing the skin between builds overflows every region;
    // the spilled rows must still land exactly where a fresh serial
    // build puts them.
    auto listAt = [](int threads, bool regrow) {
        ThreadPool::setThreads(threads);
        Simulation sim;
        randomSystem(sim, 1500, 9.0, 4242);
        sim.neighbor.cutoff = 1.2;
        sim.neighbor.skin = regrow ? 0.0 : 0.6;
        sim.comm->exchange(sim);
        sim.comm->borders(sim);
        sim.neighbor.build(sim);
        if (regrow) {
            sim.neighbor.skin = 0.6;
            sim.comm->borders(sim);
            sim.neighbor.build(sim);
        }
        return std::make_pair(sim.neighbor.list().offsets,
                              sim.neighbor.list().neighbors);
    };
    const int before = ThreadPool::threads();
    const auto reference = listAt(1, false);
    for (const int threads : {2, 4, 8}) {
        SCOPED_TRACE(threads);
        EXPECT_EQ(listAt(threads, true), reference);
    }
    ThreadPool::setThreads(before);
}

/** offsets+neighbors of a fresh build at the given knobs. */
std::pair<std::vector<std::uint32_t>, std::vector<std::uint32_t>>
buildListAt(int width, bool full, std::uint64_t seed)
{
    setSimdWidth(width);
    Simulation sim;
    randomSystem(sim, 400, 7.0, seed);
    sim.neighbor.cutoff = 1.5;
    sim.neighbor.skin = 0.3;
    sim.neighbor.full = full;
    sim.comm->exchange(sim);
    sim.comm->borders(sim);
    sim.neighbor.build(sim);
    setSimdWidth(-1);
    return {sim.neighbor.list().offsets, sim.neighbor.list().neighbors};
}

TEST(Neighbor, VectorizedBuildMatchesScalarOracleAtAllWidths)
{
    // The vectorized candidate filter must emit exactly the scalar
    // walk's (width 1) CSR rows — same offsets, same payload, same
    // order — for both list flavors at every wider packing width.
    for (const bool full : {false, true}) {
        for (const std::uint64_t seed : {11u, 12u, 13u}) {
            const auto reference = buildListAt(1, full, seed);
            for (const int width : {2, 4, 8}) {
                SCOPED_TRACE(testing::Message()
                             << "full=" << full << " seed=" << seed
                             << " width=" << width);
                const auto vectorized = buildListAt(width, full, seed);
                EXPECT_EQ(vectorized.first, reference.first);
                EXPECT_EQ(vectorized.second, reference.second);
            }
        }
    }
}

TEST(Neighbor, ExclusionSystemListUnaffectedByWidth)
{
    // Bonded systems take the scalar inclusion path (exclusion checks
    // are not vectorized); the produced list must not depend on the
    // SIMD width knob regardless.
    auto listsAt = [](int width) {
        setSimdWidth(width);
        auto sim = buildChain(4);
        sim->thermoEvery = 0;
        sim->setup();
        setSimdWidth(-1);
        return std::make_pair(sim->neighbor.list().offsets,
                              sim->neighbor.list().neighbors);
    };
    const auto reference = listsAt(1);
    const auto wide = listsAt(8);
    EXPECT_EQ(wide.first, reference.first);
    EXPECT_EQ(wide.second, reference.second);
}

TEST(Neighbor, PackingRefreshesOnWidthChange)
{
    // Regression: changing the SIMD width between builds must not let
    // a kernel traverse the stale-width packing — the force loop
    // refreshes the packing before every pair compute.
    setSimdWidth(4);
    auto sim = buildLJ(4);
    sim->thermoEvery = 0;
    sim->setup();
    ASSERT_TRUE(sim->neighbor.list().packedFor(4));

    setSimdWidth(8);
    sim->computeForces();
    EXPECT_TRUE(sim->neighbor.list().packedFor(8));

    // The refreshed packing and the forces computed through it must
    // match a run that was at width 8 from the start.
    auto reference = buildLJ(4);
    reference->thermoEvery = 0;
    reference->setup();
    ASSERT_TRUE(reference->neighbor.list().packedFor(8));
    EXPECT_EQ(sim->neighbor.list().packedOffsets,
              reference->neighbor.list().packedOffsets);
    EXPECT_EQ(sim->neighbor.list().packedNeighbors,
              reference->neighbor.list().packedNeighbors);
    for (std::size_t i = 0; i < sim->atoms.nlocal(); ++i) {
        EXPECT_EQ(sim->atoms.f[i].x, reference->atoms.f[i].x) << i;
        EXPECT_EQ(sim->atoms.f[i].y, reference->atoms.f[i].y) << i;
        EXPECT_EQ(sim->atoms.f[i].z, reference->atoms.f[i].z) << i;
    }
    setSimdWidth(-1);
}

TEST(Neighbor, RebuildKeepsPhysicsConsistent)
{
    // Run an LJ melt with a large skin and verify neighbor rebuilds
    // happen *and* energy stays conserved across them.
    Simulation sim;
    buildFcc(sim, 5, 5, 5, fccLatticeConstant(0.8442));
    sim.pair = std::make_unique<PairLJCut>(1, 2.5);
    static_cast<PairLJCut &>(*sim.pair).setCoeff(1, 1, 1.0, 1.0);
    sim.neighbor.skin = 0.3;
    sim.dt = 0.005;
    Rng rng(2024);
    createVelocities(sim, 1.44, rng);
    sim.addFix<FixNVE>();
    sim.thermoEvery = 0;
    sim.setup();
    sim.run(150);
    EXPECT_GT(sim.reneighborCount(), 2);
}

} // namespace
} // namespace mdbench
