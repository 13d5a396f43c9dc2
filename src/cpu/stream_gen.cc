#include "stream_gen.hh"

#include <bit>
#include <cstring>

#include "sim/checkpoint.hh"

#include "sim/logging.hh"

namespace softwatt
{

void
saveMicroOp(ChunkWriter &out, const MicroOp &op)
{
    out.u64(op.pc);
    out.u64(op.memAddr);
    out.u64(op.target);
    out.u64(op.syscallArg);
    out.u8(std::uint8_t(op.cls));
    out.u8(std::uint8_t(op.mode));
    out.u8(op.srcA);
    out.u8(op.srcB);
    out.u8(op.dst);
    out.u16(op.syscallId);
    out.u32(op.asid);
    out.u32(op.frameTag);
    out.b(op.taken);
    out.b(op.isCall);
    out.b(op.isReturn);
    out.b(op.kernelMapped);
}

MicroOp
loadMicroOp(ChunkReader &in)
{
    MicroOp op;
    op.pc = in.u64();
    op.memAddr = in.u64();
    op.target = in.u64();
    op.syscallArg = in.u64();
    op.cls = InstClass(in.u8());
    op.mode = ExecMode(in.u8());
    op.srcA = in.u8();
    op.srcB = in.u8();
    op.dst = in.u8();
    op.syscallId = in.u16();
    op.asid = in.u32();
    op.frameTag = in.u32();
    op.taken = in.b();
    op.isCall = in.b();
    op.isReturn = in.b();
    op.kernelMapped = in.b();
    return op;
}

void
StreamSpec::saveState(ChunkWriter &out) const
{
    out.f64(fracLoad);
    out.f64(fracStore);
    out.f64(fracBranch);
    out.f64(fracFp);
    out.f64(fracNop);
    out.u64(codeBase);
    out.u64(codeFootprint);
    out.f64(predictability);
    out.f64(takenProb);
    out.f64(callFraction);
    out.u64(dataBase);
    out.u64(dataFootprint);
    out.f64(spatialLocality);
    out.f64(coldAccessProb);
    out.u64(hotFootprint);
    out.f64(depProb);
    out.u32(std::uint32_t(depWindow));
    out.u8(std::uint8_t(mode));
    out.b(kernelMapped);
    out.u32(asid);
}

void
StreamSpec::loadState(ChunkReader &in)
{
    fracLoad = in.f64();
    fracStore = in.f64();
    fracBranch = in.f64();
    fracFp = in.f64();
    fracNop = in.f64();
    codeBase = in.u64();
    codeFootprint = in.u64();
    predictability = in.f64();
    takenProb = in.f64();
    callFraction = in.f64();
    dataBase = in.u64();
    dataFootprint = in.u64();
    spatialLocality = in.f64();
    coldAccessProb = in.f64();
    hotFootprint = in.u64();
    depProb = in.f64();
    depWindow = int(in.u32());
    mode = ExecMode(in.u8());
    kernelMapped = in.b();
    asid = in.u32();
}

StreamGen::StreamGen(const StreamSpec &spec, std::uint64_t seed)
    : streamSpec(spec), rng(seed), pc(spec.codeBase),
      nextDataAddr(spec.dataBase)
{
    double mix = spec.fracLoad + spec.fracStore + spec.fracBranch +
                 spec.fracFp + spec.fracNop;
    if (mix > 1.0 + 1e-9)
        fatal("stream instruction mix exceeds 1.0");
    if (spec.codeFootprint < 64 || spec.dataFootprint < 64)
        fatal("stream footprints must be at least 64 bytes");
    buildClassPattern();
    setThresholds();
}

void
StreamGen::setThresholds()
{
    const StreamSpec &s = streamSpec;
    depThreshold = Random::chanceThreshold(s.depProb);
    localityThreshold = Random::chanceThreshold(s.spatialLocality);
    coldThreshold = Random::chanceThreshold(s.coldAccessProb);
    takenThreshold = Random::chanceThreshold(s.takenProb);
}

namespace
{

/**
 * Class patterns already built on this thread, keyed by the bit
 * patterns of the five mix fractions (the only inputs of a pattern).
 * Every service invocation builds a stream, and the machine has only
 * a dozen or so distinct mixes, so nearly every build is a hit. The
 * table is fixed-size thread-local storage: it never allocates, and
 * a thread that sees more mixes than it holds replaces the oldest.
 */
struct ClassPatternMemo
{
    static constexpr int capacity = 32;
    struct Entry
    {
        std::uint64_t key[5];
        std::uint8_t pattern[StreamGen::patternLength];
    };
    Entry entries[capacity];
    int used;        // entries filled so far
    int nextVictim;  // round-robin replacement cursor
};

// Zero-initialized, as is all thread-local storage.
thread_local ClassPatternMemo classPatternMemo;

} // namespace

void
StreamGen::buildClassPattern()
{
    const StreamSpec &s = streamSpec;
    const std::uint64_t key[5] = {
        std::bit_cast<std::uint64_t>(s.fracLoad),
        std::bit_cast<std::uint64_t>(s.fracStore),
        std::bit_cast<std::uint64_t>(s.fracBranch),
        std::bit_cast<std::uint64_t>(s.fracFp),
        std::bit_cast<std::uint64_t>(s.fracNop),
    };
    ClassPatternMemo &memo = classPatternMemo;
    for (int i = 0; i < memo.used; ++i) {
        const ClassPatternMemo::Entry &e = memo.entries[i];
        if (std::memcmp(e.key, key, sizeof key) == 0) {
            std::memcpy(classPattern, e.pattern, patternLength);
            return;
        }
    }
    computeClassPattern(s, classPattern);
    ClassPatternMemo::Entry &slot = memo.entries[memo.nextVictim];
    std::memcpy(slot.key, key, sizeof key);
    std::memcpy(slot.pattern, classPattern, patternLength);
    memo.nextVictim = (memo.nextVictim + 1) % ClassPatternMemo::capacity;
    if (memo.used < ClassPatternMemo::capacity)
        ++memo.used;
}

void
StreamGen::computeClassPattern(const StreamSpec &s,
                               std::uint8_t (&pattern)[patternLength])
{
    // Fill a fixed-length pattern with class counts matching the
    // spec's fractions (largest-remainder rounding), then shuffle it
    // deterministically. The instruction class of a site is the
    // pattern entry at its position, so ANY contiguous stretch of
    // code — whatever orbit the control flow settles into — carries
    // the spec's mix, the way compiler-emitted loop bodies do.
    struct ClassFrac
    {
        InstClass cls;
        double frac;
    };
    ClassFrac fracs[6] = {
        {InstClass::Load, s.fracLoad},
        {InstClass::Store, s.fracStore},
        {InstClass::Branch, s.fracBranch},
        {InstClass::FpAlu, s.fracFp},
        {InstClass::Nop, s.fracNop},
        {InstClass::IntAlu,
         1.0 - s.fracLoad - s.fracStore - s.fracBranch - s.fracFp -
             s.fracNop},
    };
    int counts[6];
    int assigned = 0;
    for (int i = 0; i < 6; ++i) {
        counts[i] = int(fracs[i].frac * patternLength);
        assigned += counts[i];
    }
    // Largest remainders take the leftover slots.
    while (assigned < patternLength) {
        int best = 0;
        double best_rem = -1;
        for (int i = 0; i < 6; ++i) {
            double rem = fracs[i].frac * patternLength - counts[i];
            if (rem > best_rem) {
                best_rem = rem;
                best = i;
            }
        }
        ++counts[best];
        ++assigned;
    }
    // Stripe the classes proportionally (greedy largest-deficit
    // fill): every window of the pattern then carries close to the
    // spec's mix, so the realized mix is robust to whatever subset
    // of sites the control-flow orbit favours.
    int placed[6] = {};
    for (int pos = 0; pos < patternLength; ++pos) {
        int best = -1;
        double best_deficit = -1e9;
        for (int i = 0; i < 6; ++i) {
            if (placed[i] >= counts[i])
                continue;
            double want = double(counts[i]) * (pos + 1) /
                          patternLength;
            double deficit = want - placed[i];
            if (deficit > best_deficit) {
                best_deficit = deficit;
                best = i;
            }
        }
        if (best < 0)
            best = 5;  // IntAlu absorbs rounding leftovers
        pattern[pos] = std::uint8_t(fracs[best].cls);
        ++placed[best];
    }
}

std::uint8_t
StreamGen::pickDst()
{
    // Rotate through registers 1..47, remembering recent producers.
    std::uint8_t reg = std::uint8_t(nextDstReg);
    nextDstReg = nextDstReg >= 47 ? 1 : nextDstReg + 1;
    recentDst[recentCount % 8] = reg;
    ++recentCount;
    return reg;
}

std::uint8_t
StreamGen::pickSrc()
{
    // The dependence draw picks the bound of the register draw and
    // what it names: one of the last depWindow results, or one of the
    // long-dead registers 48..62, which are almost certainly ready.
    // Masks select both, so the unpredictable draw steers no branch.
    bool dep = recentCount > 0 && rng.chanceBelow(depThreshold);
    int window = streamSpec.depWindow < recentCount
                     ? streamSpec.depWindow
                     : recentCount;
    std::uint64_t take = -std::uint64_t(dep);  // all ones if dep
    std::uint64_t bound = 15 ^ ((15 ^ std::uint64_t(window)) & take);
    std::uint64_t pick = rng.below(bound);
    std::uint8_t recent = recentDst[(recentCount - 1 - int(pick)) & 7];
    std::uint8_t dead = std::uint8_t(48 + pick);
    return std::uint8_t(dead ^ ((dead ^ recent) & take));
}

Addr
StreamGen::pickDataAddr()
{
    const StreamSpec &s = streamSpec;
    std::uint64_t hot = s.hotFootprint < s.dataFootprint
                            ? s.hotFootprint
                            : s.dataFootprint;
    if (rng.chanceBelow(localityThreshold)) {
        nextDataAddr += 8;
        if (nextDataAddr >= s.dataBase + hot)
            nextDataAddr = s.dataBase;
        return nextDataAddr;
    }
    if (coldThreshold > 0 && rng.chanceBelow(coldThreshold)) {
        // Cold access across the full footprint: the TLB-miss source.
        return s.dataBase + (rng.below(s.dataFootprint) & ~Addr(7));
    }
    Addr addr = s.dataBase + (rng.below(hot) & ~Addr(7));
    nextDataAddr = addr;
    return addr;
}

namespace
{

/** Deterministic per-PC hash: a PC's class/behaviour is a fixed
 *  property of the site, as in real code, so the branch predictor
 *  and I-cache see stable structure. */
std::uint64_t
siteHash(Addr pc)
{
    std::uint64_t h = pc >> 2;
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdull;
    h ^= h >> 29;
    h *= 0xc4ceb9fe1a85ec53ull;
    h ^= h >> 32;
    return h;
}

} // namespace

FetchOutcome
StreamGen::next(MicroOp &op)
{
    const StreamSpec &s = streamSpec;
    // Copied from a constant: assigning MicroOp{} builds the blank op
    // in a stack temporary whose wide reload stalls store forwarding.
    static constexpr MicroOp blank{};
    op = blank;
    op.pc = pc;
    op.mode = s.mode;
    op.kernelMapped = s.kernelMapped;
    op.asid = s.asid;

    std::uint64_t site = siteHash(pc);
    InstClass site_class = InstClass(
        classPattern[((pc - s.codeBase) >> 2) % patternLength]);
    if (site_class == InstClass::Load) {
        op.cls = InstClass::Load;
        op.memAddr = pickDataAddr();
        op.srcA = pickSrc();
        op.dst = pickDst();
    } else if (site_class == InstClass::Store) {
        op.cls = InstClass::Store;
        op.memAddr = pickDataAddr();
        op.srcA = pickSrc();
        op.srcB = pickSrc();
    } else if (site_class == InstClass::Branch) {
        op.cls = InstClass::Branch;
        op.srcA = pickSrc();

        // Call/return/plain is a fixed property of the site.
        bool site_is_return =
            ((site >> 40) & 0xff) <
            std::uint64_t(s.callFraction * 256.0);
        bool site_is_call =
            !site_is_return && ((site >> 32) & 0xff) <
                                   std::uint64_t(s.callFraction *
                                                 256.0);

        if (site_is_return && callDepth > 0) {
            op.isReturn = true;
            op.taken = true;
            op.target = callStack[--callDepth];
        } else {
            // Direction: predictable sites keep a per-PC fixed
            // direction; the rest flip randomly per visit.
            bool predictable_site =
                ((site >> 16) & 0xff) <
                std::uint64_t(s.predictability * 256.0);
            if (predictable_site) {
                op.taken = ((site >> 24) & 7) != 0;  // mostly taken
            } else {
                op.taken = rng.chanceBelow(takenThreshold);
            }
            if (op.taken) {
                // The target is a fixed, BTB-learnable property of
                // the site, spread across the whole code footprint
                // so the control-flow walk covers it ergodically
                // (keeping the realized instruction mix close to
                // the spec's site distribution).
                std::uint64_t off =
                    ((site >> 8) % s.codeFootprint) & ~Addr(3);
                op.target = s.codeBase + off;
                if (op.target == op.pc)
                    op.target = s.codeBase;
            }
            if (site_is_call && callDepth < 16) {
                op.isCall = true;
                callStack[callDepth++] = op.pc + 4;
            }
        }
    } else if (site_class == InstClass::FpAlu) {
        op.cls = InstClass::FpAlu;
        op.srcA = pickSrc();
        op.srcB = pickSrc();
        op.dst = pickDst();
    } else if (site_class == InstClass::Nop) {
        op.cls = InstClass::Nop;
    } else {
        op.cls = InstClass::IntAlu;
        op.srcA = pickSrc();
        op.srcB = pickSrc();
        op.dst = pickDst();
    }

    // Advance the PC: sequential, or redirect at taken branches.
    if (op.isBranch() && op.taken) {
        pc = op.target;
    } else {
        pc += 4;
        if (pc >= s.codeBase + s.codeFootprint)
            pc = s.codeBase;
    }

    ++numGenerated;
    return FetchOutcome::Op;
}

void
StreamGen::saveState(ChunkWriter &out) const
{
    streamSpec.saveState(out);
    out.u64(rng.rawState());
    out.u64(pc);
    out.u64(nextDataAddr);
    out.u64(numGenerated);
    for (std::uint8_t reg : recentDst)
        out.u8(reg);
    out.u32(std::uint32_t(recentCount));
    out.u32(std::uint32_t(nextDstReg));
    for (Addr addr : callStack)
        out.u64(addr);
    out.u32(std::uint32_t(callDepth));
}

void
StreamGen::loadState(ChunkReader &in)
{
    streamSpec.loadState(in);
    buildClassPattern();  // spec-derived, rng-free
    setThresholds();
    rng.setRawState(in.u64());
    pc = in.u64();
    nextDataAddr = in.u64();
    numGenerated = in.u64();
    for (std::uint8_t &reg : recentDst)
        reg = in.u8();
    recentCount = int(in.u32());
    nextDstReg = int(in.u32());
    for (Addr &addr : callStack)
        addr = in.u64();
    callDepth = int(in.u32());
}

void
BoundedStream::saveState(ChunkWriter &out) const
{
    gen.saveState(out);
    out.u64(remaining);
}

void
BoundedStream::loadState(ChunkReader &in)
{
    gen.loadState(in);
    remaining = in.u64();
}

} // namespace softwatt
