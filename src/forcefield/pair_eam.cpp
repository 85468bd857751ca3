#include "forcefield/pair_eam.h"

#include <array>
#include <bit>
#include <cmath>
#include <type_traits>

#include "md/neighbor.h"
#include "md/simulation.h"
#include "obs/counters.h"
#include "obs/trace.h"
#include "util/error.h"
#include "util/simd.h"

namespace mdbench {

namespace {

/**
 * W-wide CubicSpline::eval over gathered knots: the same clamp /
 * locate / Hermite-basis expressions as the scalar eval, so in the
 * double instantiation each lane is bitwise-identical to a scalar eval
 * at that abscissa (float instantiations evaluate the same expressions
 * over the once-cast float knot mirrors). Out-of-range lanes (the
 * sentinel's huge radius) clamp to the last interval and produce
 * finite garbage that callers mask off.
 */
template <typename T, int W>
inline void
evalSplineSimd(const CubicSpline::ViewT<T> &sp, const Simd<T, W> &x,
               Simd<T, W> &value, Simd<T, W> &derivative)
{
    using D = Simd<T, W>;
    using I = SimdIndex<W>;
    const D nMinus1(static_cast<T>(sp.n - 1));
    D s = (x - D(sp.x0)) / D(sp.dx);
    s = D::min(D::max(s, D(T(0))), nMinus1);
    const I idx =
        I::min(D::truncToIndex(s),
               static_cast<std::uint32_t>(sp.n - 2));
    const D t = s - D::fromIndex(idx);
    const D a = D(T(1)) - t;
    const D yi = D::gather(sp.y, idx);
    const D yi1 = D::gather(sp.y, idx + 1u);
    const D mi = D::gather(sp.m, idx);
    const D mi1 = D::gather(sp.m, idx + 1u);
    const D h2 = D(sp.dx * sp.dx);
    value = a * yi + t * yi1 +
            ((a * a * a - a) * mi + (t * t * t - t) * mi1) * h2 / D(T(6));
    derivative = (yi1 - yi) / D(sp.dx) +
                 ((D(T(3)) * t * t - D(T(1))) * mi1 -
                  (D(T(3)) * a * a - D(T(1))) * mi) *
                     D(sp.dx) / D(T(6));
}

} // namespace

EamTables
EamTables::makeSyntheticCopper(double cutoff, int points)
{
    require(points >= 16, "EAM table needs a reasonable resolution");

    // Copper-like constants: Morse pair term fitted to Cu dimer data and
    // an exponentially decaying density; both smoothly truncated so value
    // and slope vanish at the cutoff.
    const double morseD = 0.3429;   // eV
    const double morseA = 1.3588;   // 1/A
    const double r0 = 2.866;        // A, Cu dimer distance
    const double rhoAmp = 1.0;
    const double rhoBeta = 3.9;

    auto morse = [&](double r) {
        const double e = std::exp(-morseA * (r - r0));
        return morseD * ((1.0 - e) * (1.0 - e) - 1.0);
    };
    auto morseDeriv = [&](double r) {
        const double e = std::exp(-morseA * (r - r0));
        return 2.0 * morseD * morseA * e * (1.0 - e);
    };
    auto density = [&](double r) {
        return rhoAmp * std::exp(-rhoBeta * (r / r0 - 1.0));
    };
    auto densityDeriv = [&](double r) {
        return -rhoBeta / r0 * density(r);
    };

    const double rMin = 1.0; // below this, clamp (never sampled in a solid)
    const double dr = (cutoff - rMin) / (points - 1);
    std::vector<double> phiSamples(points);
    std::vector<double> rhoSamples(points);
    const double phiC = morse(cutoff);
    const double phiD = morseDeriv(cutoff);
    const double rhoC = density(cutoff);
    const double rhoD = densityDeriv(cutoff);
    for (int i = 0; i < points; ++i) {
        const double r = rMin + i * dr;
        phiSamples[i] = morse(r) - phiC - phiD * (r - cutoff);
        rhoSamples[i] = density(r) - rhoC - rhoD * (r - cutoff);
    }

    // Equilibrium host density: 12 fcc nearest neighbors at a/sqrt(2)
    // with a = 3.615 A.
    const double nn = 3.615 / std::sqrt(2.0);
    const double rhoE = 12.0 * (density(nn) - rhoC - rhoD * (nn - cutoff));
    const double embedF0 = 2.3; // eV-scale embedding strength
    const double rhoMax = 3.0 * rhoE;
    const double drho = rhoMax / (points - 1);
    std::vector<double> embedSamples(points);
    for (int i = 0; i < points; ++i) {
        const double rho = i * drho;
        embedSamples[i] = -embedF0 * std::sqrt(rho / rhoE);
    }

    EamTables tables;
    tables.phi = CubicSpline(rMin, dr, std::move(phiSamples));
    tables.rho = CubicSpline(rMin, dr, std::move(rhoSamples));
    tables.embed = CubicSpline(0.0, drho, std::move(embedSamples));
    tables.cutoff = cutoff;
    return tables;
}

PairEAM::PairEAM(EamTables tables) : tables_(std::move(tables))
{
    require(tables_.cutoff > 0.0, "EAM cutoff must be positive");
}

void
PairEAM::compute(Simulation &sim, const NeighborList &list)
{
    // The tier recorded at packing time governs: a knob flip between
    // build and compute must not mismatch the padded geometry.
    switch (list.packTier) {
      case Precision::Mixed:
        return dispatchWidth<PrecisionMixed>(sim, list);
      case Precision::Single:
        return dispatchWidth<PrecisionSingle>(sim, list);
      default:
        return dispatchWidth<PrecisionDouble>(sim, list);
    }
}

template <typename P>
void
PairEAM::dispatchWidth(Simulation &sim, const NeighborList &list)
{
    simdDispatchWidth(list.padWidth, [&](auto width) {
        computeImpl<P, decltype(width)::value>(sim, list);
    });
}

template <typename P, int W>
void
PairEAM::computeImpl(Simulation &sim, const NeighborList &list)
{
    using real = typename P::real;
    using acc = typename P::acc;
    constexpr bool kDoubleTier = std::is_same_v<real, double>;

    static_assert(sizeof(Vec3) == 3 * sizeof(double));

    ensure(!list.full, "eam requires a half neighbor list");
    TraceScope trace("pair", "eam");
    TraceScope simdTrace("pair", "simd");
    counterAdd(Counter::PairComputes);
    counterAdd(Counter::PairInteractions, list.pairCount());
    // Both radial passes traverse the packed list, so the SIMD lane
    // accounting charges each pair (and each padded slot) twice.
    countSimdLaneUse(list, 2);
    if constexpr (!kDoubleTier)
        counterAdd(Counter::PairFloatComputes);
    resetAccumulators();
    AtomStore &atoms = sim.atoms;
    const std::size_t nlocal = atoms.nlocal();
    const std::size_t nall = atoms.nall();
    const double cutSq = tables_.cutoff * tables_.cutoff;

    ThreadPool &pool = ThreadPool::global();
    const SliceRange slices(0, nlocal, forceKernelGrain(nlocal));
    std::array<double, SliceRange::kMaxSlices> energySlice{};
    std::array<double, SliceRange::kMaxSlices> virialSlice{};

    using D = Simd<real, W>;
    using M = SimdMask<real, W>;
    using SpView = CubicSpline::ViewT<real>;

    const std::uint32_t *packedOff = list.packedOffsetData();
    const std::uint32_t *packed = list.packedNeighborData();
    // Spline views in the tier's `real`: float tiers gather the
    // once-cast knot mirrors (spline.h viewF). The embedding table is
    // only evaluated by the double-tier W-wide pass; float tiers keep
    // the per-atom embedding pass in scalar double (see below).
    SpView rhoTab, phiTab;
    [[maybe_unused]] CubicSpline::View embedTab;
    if constexpr (kDoubleTier) {
        rhoTab = tables_.rho.view();
        phiTab = tables_.phi.view();
        embedTab = tables_.embed.view();
    } else {
        rhoTab = tables_.rho.viewF();
        phiTab = tables_.phi.viewF();
    }
    const D cutSqV(static_cast<real>(cutSq));
    const D zero(real(0));
    const D minusOne(real(-1));

    // Stage positions as 4-element records in the tier's `real` type
    // (md/xpack.h) so both radial passes use transpose loads instead
    // of three hardware gathers per group — and float tiers convert
    // each coordinate exactly once per compute. The fourth lane starts
    // 0 and is refilled with F'(rho) before pass 2, folding the fpJ
    // gather into the same transpose. One-lane double kernels read
    // positions and F'(rho) in place (kXRecord).
    constexpr std::uint32_t kRec = kXRecord<real, W>;
    const std::size_t nallPad = nall + atoms.npad();
    const real *xpackPtr = stagePositions<W>(xpack<real>(), atoms.x.data(),
                                             nullptr, nallPad);

    // Pass 1: host electron densities, W pairs at a time. The masked
    // contribution is an exact zero for rejected and sentinel lanes, so
    // at W = 1 the lane-striped row accumulator is the sequential row
    // sum and the per-lane scatter skips exactly the out-of-cutoff
    // pairs. Densities always accumulate in the double
    // scratch: the row sum and the per-lane scatters widen float-tier
    // contributions at the store.
    rhoBar_.assign(nall, 0.0);
    rhoScratch_.runAndReduce(pool, slices, nall, rhoBar_.data(), [&](
        std::size_t sliceBegin, std::size_t sliceEnd, int, int buffer) {
        auto rho = rhoScratch_.acc(buffer);
        // Lambda-locals so the rho scatters cannot force reloads of
        // anything the inner loop keeps live (see PairLJCut).
        const real *const xpk = xpackPtr;
        const std::uint32_t *const po = packedOff;
        const std::uint32_t *const pk = packed;
        const SpView rhoSp = rhoTab;
        const D cutSqL(static_cast<real>(cutSq));
        const D zeroL(real(0));
        for (std::size_t i = sliceBegin; i < sliceEnd; ++i) {
            const real *xiRec = xpk + kRec * i;
            const D xiX(xiRec[0]), xiY(xiRec[1]), xiZ(xiRec[2]);
            D rhoI(real(0));
            const std::uint32_t begin = po[i];
            const std::uint32_t end = po[i + 1];
            for (std::uint32_t k = begin; k < end; k += W) {
                D xjX, xjY, xjZ;
                loadXyzRec<kRec>(xpk, pk + k, xjX, xjY, xjZ);
                const D dx = xiX - xjX;
                const D dy = xiY - xjY;
                const D dz = xiZ - xjZ;
                // fma association matches dx*dx + dy*dy + dz*dz bitwise
                // on the generic backend (addition is commutative).
                const D r2 = D::fma(dz, dz, D::fma(dy, dy, dx * dx));
                const M mask = r2 < cutSqL;
                const int active = mask.bits();
                // All lanes rejected (or pure padding): the masked
                // contribution would be an exact zero everywhere, so
                // skipping the spline eval is bitwise free.
                if (active == 0)
                    continue;
                const D r = D::sqrt(r2);
                D rhoV, rhoD;
                evalSplineSimd<real, W>(rhoSp, r, rhoV, rhoD);
                const D contribution = D::select(mask, rhoV, zeroL);
                rhoI += contribution;
                // Set-bit walk ascending = ascending-k order.
                alignas(64) real sc[W];
                contribution.storeu(sc);
                for (int rest = active; rest; rest &= rest - 1) {
                    const int l =
                        std::countr_zero(static_cast<unsigned>(rest));
                    rho.at(pk[k + l]) += sc[l];
                }
            }
            rho.at(i) += rhoI.sum();
        }
    });
    sim.comm->reverseScalar(sim, rhoBar_);

    // F-embedding pass over the contiguous owned range: per-atom O(N)
    // work kept in double at every tier (rhoBar_ and fp_ stay double —
    // the tiers' float arithmetic covers the O(N * neighbors) radial
    // passes). The double tier runs it W-wide with a scalar tail
    // (scalar eval is lane-for-lane identical to the gathered eval, so
    // the tail changes nothing but the energy summation order, and at
    // W = 1 there is no tail); float tiers run it scalar. fp_ is
    // oversized by the pad slot so pass 2's sentinel gathers stay in
    // bounds; the pad entry stays 0 and forwardScalar ignores it.
    fp_.assign(nall + atoms.npad(), 0.0);
    pool.run(slices, [&](std::size_t sliceBegin, std::size_t sliceEnd,
                         int s) {
        double embedTail = 0.0;
        std::size_t i = sliceBegin;
        if constexpr (kDoubleTier) {
            D embedAcc(0.0);
            for (; i + W <= sliceEnd; i += W) {
                const D rhoHost = D::loadu(rhoBar_.data() + i);
                D value, deriv;
                evalSplineSimd<double, W>(embedTab, rhoHost, value, deriv);
                embedAcc += value;
                deriv.storeu(fp_.data() + i);
            }
            for (; i < sliceEnd; ++i) {
                double value;
                double deriv;
                tables_.embed.eval(rhoBar_[i], value, deriv);
                embedTail += value;
                fp_[i] = deriv;
            }
            // Vector sum first, tail second: the legacy summation
            // order, preserved bitwise.
            energySlice[s] = embedAcc.sum() + embedTail;
        } else {
            for (; i < sliceEnd; ++i) {
                double value;
                double deriv;
                tables_.embed.eval(rhoBar_[i], value, deriv);
                embedTail += value;
                fp_[i] = deriv;
            }
            energySlice[s] = embedTail;
        }
    });
    for (int s = 0; s < slices.count(); ++s)
        energy_ += energySlice[s];
    sim.comm->forwardScalar(sim, fp_);

    // Pass 2: forces. fScalar is masked (not the accumulators), so
    // rejected and sentinel lanes contribute exact zeros to fi, the
    // energies, and the virial, and are skipped by the Newton scatter.
    const double *fp = fp_.data();
    if constexpr (kRec == 4)
        xpackPtr = xpack<real>().setPayload(fp, nallPad);
    fscratch_.runAndReduce(pool, slices, nall, atoms.f.data(), [&](
        std::size_t sliceBegin, std::size_t sliceEnd, int s, int buffer) {
        auto fw = fscratch_.acc(buffer);
        const real *const xpk = xpackPtr;
        const double *const fpl = fp;
        const std::uint32_t *const po = packedOff;
        const std::uint32_t *const pk = packed;
        const SpView rhoSp = rhoTab;
        const SpView phiSp = phiTab;
        const D cutSqL(static_cast<real>(cutSq));
        const D zeroL(real(0));
        const D minusOneL(real(-1));
        // Energy/virial accumulation (see PairLJCut): the double tier
        // keeps slice-long lane-striped accumulators — at W = 1 exactly
        // the sequential running sums. Float tiers reset the lane
        // stripes every row and flush the row sum into `acc` scalars.
        D energyAcc(real(0));
        D virialAcc(real(0));
        acc energyRows = acc(0);
        acc virialRows = acc(0);
        for (std::size_t i = sliceBegin; i < sliceEnd; ++i) {
            const real *xiRec = xpk + kRec * i;
            const D xiX(xiRec[0]), xiY(xiRec[1]), xiZ(xiRec[2]);
            // Cast exactly as the staged record's w slot is.
            const D fpI(static_cast<real>(fpl[i]));
            D fiX(real(0)), fiY(real(0)), fiZ(real(0));
            D rowEnergy(real(0));
            D rowVirial(real(0));
            D &eAcc = kDoubleTier ? energyAcc : rowEnergy;
            D &vAcc = kDoubleTier ? virialAcc : rowVirial;
            const std::uint32_t begin = po[i];
            const std::uint32_t end = po[i + 1];
            for (std::uint32_t k = begin; k < end; k += W) {
                D xjX, xjY, xjZ, fpJ;
                loadXyzwRec<kRec>(xpk, fpl, pk + k, xjX, xjY, xjZ, fpJ);
                const D dx = xiX - xjX;
                const D dy = xiY - xjY;
                const D dz = xiZ - xjZ;
                const D r2 = D::fma(dz, dz, D::fma(dy, dy, dx * dx));
                const M mask = r2 < cutSqL;
                const int active = mask.bits();
                if (active == 0)
                    continue;
                const D r = D::sqrt(r2);
                D phiV, phiD;
                evalSplineSimd<real, W>(phiSp, r, phiV, phiD);
                D rhoV, rhoD;
                evalSplineSimd<real, W>(rhoSp, r, rhoV, rhoD);
                // -x as (-1.0) * x: bitwise identical to unary minus
                // for every finite value including zeros.
                const D fScalar = D::select(
                    mask, minusOneL * ((fpI + fpJ) * rhoD + phiD), zeroL);
                const D fOverR = fScalar / r;
                const D fpx = dx * fOverR;
                const D fpy = dy * fOverR;
                const D fpz = dz * fOverR;
                fiX += fpx;
                fiY += fpy;
                fiZ += fpz;
                // Newton scatter: pair terms spilled once, set-bit walk
                // ascending = ascending-k order at every width.
                // Float-tier pair terms widen here, once per store.
                alignas(64) real sx[W], sy[W], sz[W];
                fpx.storeu(sx);
                fpy.storeu(sy);
                fpz.storeu(sz);
                for (int rest = active; rest; rest &= rest - 1) {
                    const int l =
                        std::countr_zero(static_cast<unsigned>(rest));
                    Vec3 &fj = fw.at(pk[k + l]);
                    fj.x -= sx[l];
                    fj.y -= sy[l];
                    fj.z -= sz[l];
                }
                eAcc += D::select(mask, phiV, zeroL);
                vAcc += fScalar * r;
            }
            // Row force sums widen into the double scratch arrays
            // (float tiers: the once-per-atom widening).
            Vec3 &fi = fw.at(i);
            fi.x += fiX.sum();
            fi.y += fiY.sum();
            fi.z += fiZ.sum();
            if constexpr (!kDoubleTier) {
                energyRows += static_cast<acc>(rowEnergy.sum());
                virialRows += static_cast<acc>(rowVirial.sum());
            }
        }
        if constexpr (kDoubleTier) {
            energySlice[s] = energyAcc.sum();
            virialSlice[s] = virialAcc.sum();
        } else {
            energySlice[s] = static_cast<double>(energyRows);
            virialSlice[s] = static_cast<double>(virialRows);
        }
    });
    for (int s = 0; s < slices.count(); ++s) {
        energy_ += energySlice[s];
        virial_ += virialSlice[s];
    }
}

} // namespace mdbench
