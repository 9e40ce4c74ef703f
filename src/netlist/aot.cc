#include "netlist/aot.hh"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>
#include <unordered_map>

#include <dlfcn.h>
#include <sys/utsname.h>
#include <unistd.h>

#include "support/hashing.hh"
#include "support/limbops.hh"
#include "support/logging.hh"
#include "support/subprocess.hh"

namespace manticore::netlist {

namespace lo = ::manticore::limbops;
namespace fs = ::std::filesystem;

namespace {

/** Where the emitted code finds support/limbops.hh: env override,
 *  else the source tree baked in by CMake. */
std::string
includeDir()
{
    if (const char *env = std::getenv("MANTICORE_AOT_INCLUDE"))
        return env;
#ifdef MANTICORE_AOT_INCLUDE_DIR
    return MANTICORE_AOT_INCLUDE_DIR;
#else
    return "";
#endif
}

/** Flags the toolchain probe compiles with (the scalar object flags
 *  plus -shared).  Fixed — independent of how this library was
 *  built — so a probe result holds for every object this process
 *  emits. */
const std::vector<std::string> &
probeFlags()
{
    static const std::vector<std::string> kFlags = {
        "-std=c++17", "-O2", "-fPIC", "-shared",
    };
    return kFlags;
}

/** Flags an emitted object is compiled with (also folded into its
 *  cache key).  Scalar objects keep the fixed -O2 of the original
 *  AOT engine; laned (padded_lanes > 1) objects compile -O3 plus the
 *  probed SIMD flags, like the manticore_simd kernels, so the
 *  constant-trip-count lane loops vectorize.  -shared is a link-step
 *  detail and deliberately not part of this list. */
std::vector<std::string>
objectFlags(const AotToolchain &tc, unsigned padded_lanes)
{
    std::vector<std::string> flags{
        "-std=c++17", padded_lanes == 1 ? "-O2" : "-O3", "-fPIC"};
    if (padded_lanes != 1)
        flags.insert(flags.end(), tc.simdFlags.begin(),
                     tc.simdFlags.end());
    return flags;
}

/** Host CPU model for the cache key: /proc/cpuinfo's model line
 *  where available, else the machine architecture. */
std::string
detectHostCpu()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        for (const char *prefix :
             {"model name", "Processor", "cpu model", "Hardware"}) {
            if (line.rfind(prefix, 0) != 0)
                continue;
            size_t colon = line.find(':');
            if (colon == std::string::npos)
                continue;
            size_t start = line.find_first_not_of(" \t", colon + 1);
            if (start != std::string::npos)
                return line.substr(start);
        }
    }
    struct utsname u;
    if (uname(&u) == 0 && u.machine[0])
        return u.machine;
    return "unknown-cpu";
}

std::string
readFileAll(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return {};
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

/** Suffix for an intermediate file, unique per call rather than per
 *  process: threads building the same object into one cache dir must
 *  never write, rename or delete each other's temporaries. */
std::string
tmpSuffix()
{
    static std::atomic<unsigned long> counter{0};
    return ".tmp." + std::to_string(static_cast<long>(getpid())) + "." +
           std::to_string(counter.fetch_add(1, std::memory_order_relaxed));
}

bool
writeFileAtomic(const std::string &path, const std::string &content)
{
    std::string tmp = path + tmpSuffix();
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out)
            return false;
        out << content;
        if (!out.flush())
            return false;
    }
    std::error_code ec;
    fs::rename(tmp, path, ec);
    if (ec)
        fs::remove(tmp, ec);
    return !ec;
}

/** First line of a (possibly multi-line) compiler diagnostic, capped
 *  for readable fatal()s. */
std::string
firstLine(const std::string &text, size_t cap = 200)
{
    size_t end = text.find('\n');
    std::string line =
        end == std::string::npos ? text : text.substr(0, end);
    if (line.size() > cap)
        line = line.substr(0, cap) + "...";
    return line;
}

/** Compile-and-dlopen probe of one candidate compiler: emitted code
 *  must build (including support/limbops.hh) into a shared object we
 *  can load and call.  The SIMD-flag probe compiles concurrently, so
 *  the whole probe costs one compiler latency. */
AotToolchain
probeOne(const std::string &cxx)
{
    AotToolchain tc;
    tc.compiler = cxx;

    std::string inc = includeDir();
    std::error_code ec;
    fs::path tmpdir = fs::temp_directory_path(ec);
    if (ec) {
        tc.message = cxx + " (no temp directory: " + ec.message() + ")";
        return tc;
    }
    std::string stem =
        (tmpdir / ("manticore-aot-probe-" +
                   std::to_string(static_cast<long>(getpid()))))
            .string();
    std::string src = stem + ".cc";
    // Each concurrent run writes its own output.
    std::string obj = stem + ".so";
    std::string simd_obj = stem + ".simd.so";

    // The probe uses the same kernels the emitted code will: a
    // missing header or an exotic compiler shows up here, not at
    // simulation time.
    const std::string probe_src =
        "#include <cstdint>\n"
        "#include \"support/limbops.hh\"\n"
        "extern \"C\" unsigned manticore_aot_probe() {\n"
        "    uint64_t v[2] = {~0ull, 1ull};\n"
        "    return manticore::limbops::nlimbs(65) +\n"
        "           (manticore::limbops::reduceXor(v, 65) ? 1u : 0u);\n"
        "}\n";
    if (!writeFileAtomic(src, probe_src)) {
        tc.message = cxx + " (cannot write probe source to " + src + ")";
        return tc;
    }

    auto compile = [&](const std::vector<std::string> &flags,
                       const std::string &out) {
        std::vector<std::string> argv{cxx};
        argv.insert(argv.end(), flags.begin(), flags.end());
        argv.insert(argv.end(), {"-I", inc, src, "-o", out});
        return runCommand(argv);
    };
    auto simdArgs = [](std::vector<std::string> simd) {
        simd.insert(simd.begin(), {"-std=c++17", "-O3", "-fPIC", "-shared"});
        return simd;
    };

    // Which SIMD flags does this compiler accept?  Laned objects
    // compile -O3 + the survivors; a cross or exotic compiler that
    // rejects -march=native just loses the flag, not the engine.  All
    // candidates at once first, beside the scalar probe.
    const std::vector<std::string> candidates = {
        "-march=native", "-mprefer-vector-width=256"};
    // The future joins its thread on every path out of this scope.
    std::future<CommandResult> simd_probe = std::async(
        std::launch::async,
        [&] { return compile(simdArgs(candidates), simd_obj); });
    CommandResult res = compile(probeFlags(), obj);
    const bool simd_all = simd_probe.get().ok();

    if (!res.ok()) {
        tc.message = cxx + " (" + firstLine(res.output) + ")";
    } else if (void *handle = dlopen(obj.c_str(), RTLD_NOW | RTLD_LOCAL)) {
        auto *fn = reinterpret_cast<unsigned (*)()>(
            dlsym(handle, "manticore_aot_probe"));
        if (!fn || fn() != 3)
            tc.message = cxx + " (probe object misbehaved)";
        else
            tc.ok = true;
        dlclose(handle);
    } else {
        tc.message = cxx + " (dlopen: " + firstLine(dlerror()) + ")";
    }

    // A rejected combination falls back to one candidate at a time on
    // top of the accepted ones, so every host gets the same subset.
    if (tc.ok && simd_all) {
        tc.simdFlags = candidates;
    } else if (tc.ok) {
        for (const std::string &cand : candidates) {
            std::vector<std::string> flags = tc.simdFlags;
            flags.push_back(cand);
            if (compile(simdArgs(flags), simd_obj).ok())
                tc.simdFlags.push_back(cand);
        }
    }
    for (const std::string &f : {src, obj, simd_obj})
        fs::remove(f, ec);
    return tc;
}

// ---------------------------------------------------------------------------
// Codegen: tape.cc runImpl<L> shapes with the padded lane count L baked
// in (L == 1 for a scalar object), one statement per tape instruction
// ---------------------------------------------------------------------------

std::string
hexU64(uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "0x%llxull",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** Where the results of one object's tape live.  A result that only
 *  later statements of its own chunk function read — no later chunk
 *  and nothing outside the tape (EmitSpec::liveOut) — is a block
 *  declared in that function, `u64 t<slot>[limbs x L]`, which the
 *  host compiler keeps in registers; every other slot, the sources
 *  (Const, Input, RegRead) included, is the arena's.  A local block
 *  keeps the arena block's lane stride, so a statement's shape does
 *  not depend on where its operands live: only their spelling does. */
class Placement
{
  public:
    explicit Placement(std::vector<uint32_t> locals)
        : _locals(std::move(locals))
    {
    }

    bool
    local(uint32_t slot) const
    {
        return std::binary_search(_locals.begin(), _locals.end(), slot);
    }

    /** The block's lane-0 base. */
    std::string
    ptr(uint32_t slot) const
    {
        return local(slot) ? "t" + std::to_string(slot)
                           : "A + " + std::to_string(slot);
    }

    /** Lane l's first limb of a block of lane stride `stride`. */
    std::string
    laneSlot(uint32_t slot, uint32_t stride) const
    {
        return local(slot) ? "t" + std::to_string(slot) + "[" +
                                 laneOffset(stride) + "]"
                           : "A[" + arenaIdx(slot, stride) + "]";
    }

    /** Pointer to lane l's first limb of a block of lane stride
     *  `stride`. */
    std::string
    lanePtr(uint32_t slot, uint32_t stride) const
    {
        return local(slot)
                   ? "t" + std::to_string(slot) + " + " + laneOffset(stride)
                   : "A + " + arenaIdx(slot, stride);
    }

  private:
    static std::string
    laneOffset(uint32_t stride)
    {
        return stride == 1 ? "l" : "l * " + std::to_string(stride) + "u";
    }

    static std::string
    arenaIdx(uint32_t slot, uint32_t stride)
    {
        return std::to_string(slot) + " + " + laneOffset(stride);
    }

    std::vector<uint32_t> _locals; ///< sorted
};

/** Per-lane shift amount, mirroring tape.cc::shiftAmountLane (the
 *  lane stride of the amount operand is nlimbs(bw)): wide amounts
 *  that do not fit 64 bits shift everything out, spelled as `width`,
 *  which both the kernels and the narrow `amt >= width` guard treat
 *  as all-out. */
std::string
shiftAmountLane(const tape::Instr &in, const Placement &at)
{
    const uint32_t bs = lo::nlimbs(in.bw);
    if (in.bw <= 64)
        return at.laneSlot(in.b, bs);
    return "(lo::fitsUint64(" + at.lanePtr(in.b, bs) + ", " +
           std::to_string(bs) + "u) ? " + at.laneSlot(in.b, bs) + " : " +
           std::to_string(in.width) + "ull)";
}

/** Emit the statement(s) for one instruction at compile-time lane
 *  count L (1 for a scalar object).  Must mirror tape.cc's
 *  runImpl<L> exactly — the randomized differentials and the
 *  CrossCheck matrix pin this: narrow ops call the width-templated
 *  laned kernels, wide ops and memory reads become constant-trip-count
 *  per-lane loops with the arena lane strides baked in.  `at` spells
 *  each operand in the arena or as a chunk-local block. */
void
emitInstr(std::ostream &os, const tape::Instr &in,
          const std::vector<tape::MemState> &mems, unsigned L,
          const Placement &at)
{
    using tape::Op;
    const std::string T = "<" + std::to_string(L) + ">";
    const std::string Lu = std::to_string(L) + "u";
    const std::string FOR =
        "for (unsigned l = 0; l < " + Lu + "; ++l) ";
    const std::string d = at.ptr(in.dst);
    const std::string a = at.ptr(in.a);
    const std::string b = at.ptr(in.b);
    const std::string mask = hexU64(in.mask);
    const std::string W = std::to_string(in.width) + "u";
    const std::string AW = std::to_string(in.aw) + "u";
    const std::string BW = std::to_string(in.bw) + "u";

    os << "    ";
    switch (in.op) {
      case Op::NAdd:
        os << "lo::addN" << T << "(" << d << ", " << a << ", " << b
           << ", " << mask << ", " << Lu << ");";
        break;
      case Op::NSub:
        os << "lo::subN" << T << "(" << d << ", " << a << ", " << b
           << ", " << mask << ", " << Lu << ");";
        break;
      case Op::NMul:
        os << "lo::mulN" << T << "(" << d << ", " << a << ", " << b
           << ", " << mask << ", " << Lu << ");";
        break;
      case Op::NAnd:
        os << "lo::andN" << T << "(" << d << ", " << a << ", " << b
           << ", " << Lu << ");";
        break;
      case Op::NOr:
        os << "lo::orN" << T << "(" << d << ", " << a << ", " << b
           << ", " << Lu << ");";
        break;
      case Op::NXor:
        os << "lo::xorN" << T << "(" << d << ", " << a << ", " << b
           << ", " << Lu << ");";
        break;
      case Op::NNot:
        os << "lo::notN" << T << "(" << d << ", " << a << ", " << mask
           << ", " << Lu << ");";
        break;
      case Op::NShl:
        os << FOR << "{ u64 amt = " << shiftAmountLane(in, at) << "; "
           << at.laneSlot(in.dst, 1) << " = amt >= " << in.width
           << "ull ? 0 : (" << at.laneSlot(in.a, 1) << " << amt) & "
           << mask << "; }";
        break;
      case Op::NLshr:
        os << FOR << "{ u64 amt = " << shiftAmountLane(in, at) << "; "
           << at.laneSlot(in.dst, 1) << " = amt >= " << in.width
           << "ull ? 0 : " << at.laneSlot(in.a, 1) << " >> amt; }";
        break;
      case Op::NEq:
        os << "lo::eqN" << T << "(" << d << ", " << a << ", " << b
           << ", " << Lu << ");";
        break;
      case Op::NUlt:
        os << "lo::ultN" << T << "(" << d << ", " << a << ", " << b
           << ", " << Lu << ");";
        break;
      case Op::NSlt:
        os << "lo::sltN" << T << "(" << d << ", " << a << ", " << b
           << ", " << hexU64(1ull << (in.aw - 1)) << ", " << Lu
           << ");";
        break;
      case Op::NMux:
        os << "lo::muxN" << T << "(" << d << ", " << a << ", " << b
           << ", " << at.ptr(in.c) << ", " << Lu << ");";
        break;
      case Op::NSlice:
        os << "lo::sliceN" << T << "(" << d << ", " << a << ", "
           << in.lo << "u, " << mask << ", " << Lu << ");";
        break;
      case Op::NConcat:
        os << "lo::concatN" << T << "(" << d << ", " << a << ", " << b
           << ", " << BW << ", " << Lu << ");";
        break;
      case Op::NZExt:
        os << "lo::copyN" << T << "(" << d << ", " << a << ", " << Lu
           << ");";
        break;
      case Op::NSExt:
        if (in.aw < in.width)
            os << "lo::sextN" << T << "(" << d << ", " << a << ", "
               << AW << ", " << mask << ", " << Lu << ");";
        else
            os << "lo::copyN" << T << "(" << d << ", " << a << ", "
               << Lu << ");";
        break;
      case Op::NRedOr:
        os << "lo::redOrN" << T << "(" << d << ", " << a << ", " << Lu
           << ");";
        break;
      case Op::NRedAnd:
        os << "lo::redAndN" << T << "(" << d << ", " << a << ", "
           << mask << ", " << Lu << ");";
        break;
      case Op::NRedXor:
        os << "lo::redXorN" << T << "(" << d << ", " << a << ", " << Lu
           << ");";
        break;
      case Op::NMemRead: {
        const uint32_t as = lo::nlimbs(in.aw);
        os << FOR << at.laneSlot(in.dst, 1) << " = M[" << in.lo << "][("
           << at.laneSlot(in.a, as) << " % " << mems[in.lo].depth
           << "ull) * " << Lu << " + l];";
        break;
      }
      case Op::WAdd:
      case Op::WSub:
      case Op::WMul:
      case Op::WAnd:
      case Op::WOr:
      case Op::WXor: {
        const uint32_t s = lo::nlimbs(in.width);
        const char *fn = in.op == Op::WAdd   ? "add"
                         : in.op == Op::WSub ? "sub"
                         : in.op == Op::WMul ? "mul"
                         : in.op == Op::WAnd ? "bitAnd"
                         : in.op == Op::WOr  ? "bitOr"
                                             : "bitXor";
        os << FOR << "lo::" << fn << "(" << at.lanePtr(in.dst, s) << ", "
           << at.lanePtr(in.a, s) << ", " << at.lanePtr(in.b, s) << ", " << W
           << ");";
        break;
      }
      case Op::WNot: {
        const uint32_t s = lo::nlimbs(in.width);
        os << FOR << "lo::bitNot(" << at.lanePtr(in.dst, s) << ", "
           << at.lanePtr(in.a, s) << ", " << W << ");";
        break;
      }
      case Op::WShl:
      case Op::WLshr: {
        const uint32_t s = lo::nlimbs(in.width);
        os << FOR << "lo::" << (in.op == Op::WShl ? "shl" : "lshr")
           << "(" << at.lanePtr(in.dst, s) << ", " << at.lanePtr(in.a, s)
           << ", " << shiftAmountLane(in, at) << ", " << W << ");";
        break;
      }
      case Op::WEq:
      case Op::WUlt:
      case Op::WSlt: {
        const uint32_t s = lo::nlimbs(in.aw);
        const char *fn = in.op == Op::WEq    ? "eq"
                         : in.op == Op::WUlt ? "ult"
                                             : "slt";
        os << FOR << at.laneSlot(in.dst, 1) << " = lo::" << fn << "("
           << at.lanePtr(in.a, s) << ", " << at.lanePtr(in.b, s) << ", "
           << AW << ");";
        break;
      }
      case Op::WMux: {
        const uint32_t ss = lo::nlimbs(in.aw);
        const uint32_t s = lo::nlimbs(in.width);
        os << FOR << "lo::copy(" << at.lanePtr(in.dst, s) << ", "
           << at.laneSlot(in.a, ss) << " ? " << at.lanePtr(in.b, s) << " : "
           << at.lanePtr(in.c, s) << ", " << s << "u);";
        break;
      }
      case Op::WSlice: {
        const uint32_t as = lo::nlimbs(in.aw);
        const uint32_t s = lo::nlimbs(in.width);
        os << FOR << "lo::slice(" << at.lanePtr(in.dst, s) << ", "
           << at.lanePtr(in.a, as) << ", " << AW << ", " << in.lo
           << "u, " << W << ");";
        break;
      }
      case Op::WConcat: {
        const uint32_t as = lo::nlimbs(in.aw);
        const uint32_t bs = lo::nlimbs(in.bw);
        const uint32_t s = lo::nlimbs(in.width);
        os << FOR << "lo::concat(" << at.lanePtr(in.dst, s) << ", "
           << at.lanePtr(in.a, as) << ", " << at.lanePtr(in.b, bs) << ", "
           << AW << ", " << BW << ");";
        break;
      }
      case Op::WZExt:
      case Op::WSExt: {
        const uint32_t as = lo::nlimbs(in.aw);
        const uint32_t s = lo::nlimbs(in.width);
        os << FOR << "lo::"
           << (in.op == Op::WZExt ? "zext" : "sext") << "("
           << at.lanePtr(in.dst, s) << ", " << at.lanePtr(in.a, as) << ", "
           << W << ", " << AW << ");";
        break;
      }
      case Op::WRedOr:
      case Op::WRedAnd:
      case Op::WRedXor: {
        const uint32_t as = lo::nlimbs(in.aw);
        const char *fn = in.op == Op::WRedOr    ? "reduceOr"
                         : in.op == Op::WRedAnd ? "reduceAnd"
                                                : "reduceXor";
        os << FOR << at.laneSlot(in.dst, 1) << " = lo::" << fn << "("
           << at.lanePtr(in.a, as) << ", " << AW << ");";
        break;
      }
      case Op::WMemRead: {
        const uint32_t as = lo::nlimbs(in.aw);
        const tape::MemState &m = mems[in.lo];
        os << FOR << "lo::copy(" << at.lanePtr(in.dst, m.wordLimbs)
           << ", M[" << in.lo << "] + ((" << at.laneSlot(in.a, as)
           << " % " << m.depth << "ull) * " << Lu << " + l) * "
           << m.wordLimbs << "u, " << m.wordLimbs << "u);";
        break;
      }
    }
    os << "\n";
}

// ---------------------------------------------------------------------------
// Translation units: single combined, per-chunk, and the chunk driver
// ---------------------------------------------------------------------------

/** What to emit: a tape slice, its memory geometry, the compile-time
 *  lane count, the exported entry-point name, and the slots of the
 *  tape's results that the evaluator's step reads outside the tape
 *  (CompiledEvaluator::liveOutSlots; any order, repeats allowed). */
struct EmitSpec
{
    const tape::Instr *instrs;
    size_t count;
    const std::vector<tape::MemState> *mems;
    unsigned lanes;
    std::string entry;
    std::vector<uint32_t> liveOut;
};

/** How many of the operand slots a, b, c an instruction reads. */
unsigned
operandCount(tape::Op op)
{
    using tape::Op;
    switch (op) {
      case Op::NMux:
      case Op::WMux:
        return 3;
      case Op::NNot:
      case Op::NSlice:
      case Op::NZExt:
      case Op::NSExt:
      case Op::NRedOr:
      case Op::NRedAnd:
      case Op::NRedXor:
      case Op::NMemRead:
      case Op::WNot:
      case Op::WSlice:
      case Op::WZExt:
      case Op::WSExt:
      case Op::WRedOr:
      case Op::WRedAnd:
      case Op::WRedXor:
      case Op::WMemRead:
        return 1;
      default:
        return 2;
    }
}

/** Place spec's results (see Placement): a result is chunk-local when
 *  one statement writes it, only later statements of the same chunk
 *  read it, and the step does not read it. */
Placement
placeResults(const EmitSpec &spec)
{
    struct Def
    {
        size_t chunk, at;
        bool local;
    };
    std::unordered_map<uint32_t, Def> defs;
    defs.reserve(spec.count);
    const size_t chunks = aotChunkCount(spec.count);
    for (size_t c = 0; c < chunks; ++c)
        for (size_t i = aotChunkBegin(spec.count, c);
             i < aotChunkBegin(spec.count, c + 1); ++i) {
            auto [it, fresh] =
                defs.try_emplace(spec.instrs[i].dst, Def{c, i, true});
            it->second.local = fresh;
        }
    for (uint32_t slot : spec.liveOut) {
        auto it = defs.find(slot);
        if (it != defs.end())
            it->second.local = false;
    }
    for (size_t c = 0; c < chunks; ++c)
        for (size_t i = aotChunkBegin(spec.count, c);
             i < aotChunkBegin(spec.count, c + 1); ++i) {
            const tape::Instr &in = spec.instrs[i];
            const uint32_t operands[] = {in.a, in.b, in.c};
            for (unsigned k = 0; k < operandCount(in.op); ++k) {
                auto it = defs.find(operands[k]);
                if (it != defs.end() &&
                    (it->second.chunk != c || it->second.at >= i))
                    it->second.local = false;
            }
        }
    std::vector<uint32_t> locals;
    for (const auto &[slot, def] : defs)
        if (def.local)
            locals.push_back(slot);
    std::sort(locals.begin(), locals.end());
    return Placement(std::move(locals));
}

const char *
emitHeader()
{
    return "// Generated by manticore netlist.aot: the lowered flat\n"
           "// tape as straight-line C++, one statement per tape op,\n"
           "// arena offsets / widths / masks baked in; results read\n"
           "// only within their chunk live in its t<slot> locals.\n"
           "// Do not edit; keyed by the manticore_aot_key definition\n"
           "// at the end.\n"
           "#include <cstdint>\n"
           "#include \"support/limbops.hh\"\n"
           "\n"
           "namespace lo = ::manticore::limbops;\n"
           "using u64 = uint64_t;\n"
           "\n";
}

/** The body of chunk `c` (see aotChunkBegin): one declaration line per
 *  chunk-local block, then the statements. */
void
emitChunkBody(std::ostream &os, const EmitSpec &spec, const Placement &at,
              size_t c)
{
    const size_t begin = aotChunkBegin(spec.count, c);
    const size_t end = aotChunkBegin(spec.count, c + 1);
    for (size_t i = begin; i < end; ++i) {
        const tape::Instr &in = spec.instrs[i];
        if (at.local(in.dst))
            os << "    u64 t" << in.dst << "["
               << lo::nlimbs(in.width) * spec.lanes << "];\n";
    }
    for (size_t i = begin; i < end; ++i)
        emitInstr(os, spec.instrs[i], *spec.mems, spec.lanes, at);
}

/** The whole tape as one translation unit (one static function per
 *  chunk, so the host compiler's per-function work stays bounded).
 *  Also the canonical source the cache key hashes, whether or not
 *  the build is split into chunk TUs: it encodes the chunk
 *  boundaries and the placement, so a change of either rule moves
 *  every key. */
std::string
emitUnit(const EmitSpec &spec, const Placement &at)
{
    std::ostringstream os;
    os << emitHeader();
    const size_t chunks = aotChunkCount(spec.count);
    for (size_t c = 0; c < chunks; ++c) {
        os << "static void cycle_chunk" << c
           << "(u64 *A, const u64 *const *M)\n{\n"
              "    (void)A; (void)M;\n";
        emitChunkBody(os, spec, at, c);
        os << "}\n\n";
    }
    os << "extern \"C\" void " << spec.entry
       << "(u64 *A, const u64 *const *M)\n{\n";
    if (chunks == 0)
        os << "    (void)A; (void)M;\n";
    for (size_t c = 0; c < chunks; ++c)
        os << "    cycle_chunk" << c << "(A, M);\n";
    os << "}\n";
    return os.str();
}

/** One chunk as its own translation unit (exported with a _chunk<c>
 *  suffix so the driver TU can call it across TU boundaries). */
std::string
emitChunkTU(const EmitSpec &spec, const Placement &at, size_t c)
{
    std::ostringstream os;
    os << emitHeader();
    os << "extern \"C\" void " << spec.entry << "_chunk" << c
       << "(u64 *A, const u64 *const *M)\n{\n"
          "    (void)A; (void)M;\n";
    emitChunkBody(os, spec, at, c);
    os << "}\n";
    return os.str();
}

/** The driver TU for a chunked build: declares every chunk entry and
 *  calls them in tape order.  Compiled as part of the link step. */
std::string
emitDriverTU(const EmitSpec &spec, size_t chunks)
{
    std::ostringstream os;
    os << "// Generated by manticore netlist.aot: chunk-TU driver.\n"
          "#include <cstdint>\n"
          "using u64 = uint64_t;\n"
          "\n";
    for (size_t c = 0; c < chunks; ++c)
        os << "extern \"C\" void " << spec.entry << "_chunk" << c
           << "(u64 *A, const u64 *const *M);\n";
    os << "\nextern \"C\" void " << spec.entry
       << "(u64 *A, const u64 *const *M)\n{\n";
    for (size_t c = 0; c < chunks; ++c)
        os << "    " << spec.entry << "_chunk" << c << "(A, M);\n";
    os << "}\n";
    return os.str();
}

// ---------------------------------------------------------------------------
// The builder: cache keys, concurrent compilation, loading
// ---------------------------------------------------------------------------

/** Content-addressed cache key: the canonical generated source
 *  (which fully encodes the lowered tape, lane width and memory
 *  geometry), the kernel header it compiles against, the flags, the
 *  compiler, and the host CPU model — the laned objects are
 *  -march=native builds, so a cache directory shared across
 *  heterogeneous hosts must not dlopen another machine's object. */
std::string
objectKey(const std::string &source,
          const std::vector<std::string> &flags, const AotToolchain &tc)
{
    uint64_t hash = fnv1a64(source);
    hash = fnv1a64(readFileAll(includeDir() + "/support/limbops.hh"),
                   hash);
    for (const std::string &f : flags)
        hash = fnv1a64(f, hash);
    hash = fnv1a64(tc.compiler, hash);
    hash = fnv1a64(aotHostCpuModel(), hash);
    return hashHex(hash);
}

/** One compiler invocation of a cold build: write `text` to `src`,
 *  then run `argv`.  A step records its outcome only into itself, so
 *  the steps of one pool share nothing. */
struct CompileStep
{
    size_t cold; ///< index of the cold object it belongs to
    std::string src;
    std::string text;
    std::vector<std::string> argv;
    bool ran = false;
    std::string error{};
};

std::vector<std::string>
compileArgv(const AotToolchain &tc, const std::vector<std::string> &flags,
            std::vector<std::string> extra)
{
    std::vector<std::string> argv{tc.compiler};
    argv.insert(argv.end(), flags.begin(), flags.end());
    argv.push_back("-I");
    argv.push_back(includeDir());
    argv.insert(argv.end(), extra.begin(), extra.end());
    return argv;
}

/** Run the steps on up to `requested_jobs` threads (0 = hardware
 *  concurrency; the caller's thread is one of them) and return how
 *  many reached the compiler.  The steps invoke support/subprocess,
 *  which is fork/exec — safe from concurrent std::threads. */
unsigned
runSteps(std::vector<CompileStep> &steps, unsigned requested_jobs)
{
    auto run = [](CompileStep &s) {
        if (!writeFileAtomic(s.src, s.text)) {
            s.error = "cannot write " + s.src;
            return;
        }
        s.ran = true;
        CommandResult res = runCommand(s.argv);
        if (!res.ok())
            s.error = s.argv.front() + " failed on " + s.src + " (" +
                      firstLine(res.output) + ")";
    };
    unsigned jobs = requested_jobs != 0
                        ? requested_jobs
                        : std::max(1u, std::thread::hardware_concurrency());
    jobs = static_cast<unsigned>(std::min<size_t>(jobs, steps.size()));
    std::atomic<size_t> next{0};
    auto worker = [&] {
        for (size_t i = next.fetch_add(1); i < steps.size();
             i = next.fetch_add(1))
            run(steps[i]);
    };
    std::vector<std::thread> threads;
    for (unsigned j = 1; j < jobs; ++j)
        threads.emplace_back(worker);
    worker();
    for (std::thread &t : threads)
        t.join();
    return static_cast<unsigned>(
        std::count_if(steps.begin(), steps.end(),
                      [](const CompileStep &s) { return s.ran; }));
}

/** dlopen `path`, check its embedded manticore_aot_key against
 *  `object.key` and resolve `entry`; on success install the handle,
 *  cycle function and path.  RTLD_LOCAL keeps every object's key and
 *  entry point out of the global namespace, so any number of objects
 *  coexist in one process. */
bool
loadObject(AotObject &object, const std::string &path,
           const std::string &entry)
{
    std::unique_ptr<void, AotObject::Unload> handle(
        dlopen(path.c_str(), RTLD_NOW | RTLD_LOCAL));
    if (!handle)
        return false;
    const char *key = static_cast<const char *>(
        dlsym(handle.get(), "manticore_aot_key"));
    void *fn = dlsym(handle.get(), entry.c_str());
    if (!key || !fn || object.key != key)
        return false;
    object.handle = std::move(handle);
    object.fn = reinterpret_cast<AotObject::CycleFn>(fn);
    object.path = path;
    return true;
}

/** The one AOT builder: object i is emitted from specs[i] (the whole
 *  tape for netlist.aot, one partition tape each for
 *  netlist.parallel.aot) and installed into objects[i].  Each object
 *  is keyed from its canonical unit and loaded from the cache when an
 *  object with a matching embedded key is there; otherwise it is
 *  cold-built — a tape of one chunk in one compiler invocation, a
 *  longer one as one TU per chunk plus a driver link.  All cold
 *  compiles of all objects share one pool bounded by aotJobs and the
 *  links run after them; every finished object is then renamed into
 *  the cache and loaded on the calling thread.  An object that fails
 *  degrades alone, with one warning, and keeps a null cycle function.
 *  Returns the compiler invocations performed. */
unsigned
buildObjects(const char *engine, const std::vector<EmitSpec> &specs,
             const EvalOptions &options, AotObject *objects)
{
    if (specs.empty())
        return 0;
    const AotToolchain &tc = aotToolchain(options.aotCompiler);
    if (!tc.ok) {
        MANTICORE_WARN(engine, ": ", tc.message,
                       "; falling back to the interpreted tape");
        return 0;
    }
    std::string dir = aotResolveCacheDir(options);
    std::error_code ec;
    fs::create_directories(dir, ec);
    if (ec) {
        MANTICORE_WARN(engine, ": cannot create cache dir ", dir, " (",
                       ec.message(),
                       "); falling back to the interpreted tape");
        return 0;
    }

    // Pass 1: key every object and take the warm ones from the cache
    // (a truncated / corrupted / stale entry fails the load and is
    // rebuilt); plan the cold builds.
    struct Cold
    {
        size_t object;
        std::string path, tmp;
        std::vector<std::string> chunkObjects;
        std::string error;
    };
    std::vector<Cold> cold;
    std::vector<CompileStep> compiles, links;
    for (size_t i = 0; i < specs.size(); ++i) {
        const EmitSpec &spec = specs[i];
        AotObject &object = objects[i];
        const std::vector<std::string> flags = objectFlags(tc, spec.lanes);
        const Placement at = placeResults(spec);
        const std::string source = emitUnit(spec, at);
        object.key = objectKey(source, flags, tc);
        const std::string stem = dir + "/manticore-aot-" + object.key;
        const std::string path = stem + ".so";
        if (fs::exists(path, ec) && loadObject(object, path, spec.entry)) {
            object.cacheHit = true;
            continue;
        }
        fs::remove(path, ec);

        const std::string key_line =
            "\nextern \"C\" const char manticore_aot_key[] = \"" +
            object.key + "\";\n";
        Cold c{i, path, path + tmpSuffix(), {}, {}};
        const size_t chunks = aotChunkCount(spec.count);
        if (chunks <= 1) {
            compiles.push_back(
                {cold.size(), stem + ".cc", source + key_line,
                 compileArgv(tc, flags,
                             {"-shared", stem + ".cc", "-o", c.tmp})});
        } else {
            const std::string driver = stem + ".driver.cc";
            std::vector<std::string> link{"-shared", driver};
            for (size_t k = 0; k < chunks; ++k) {
                const std::string src =
                    stem + ".chunk" + std::to_string(k) + ".cc";
                const std::string obj =
                    c.tmp + "." + std::to_string(k) + ".o";
                compiles.push_back(
                    {cold.size(), src, emitChunkTU(spec, at, k),
                     compileArgv(tc, flags, {"-c", src, "-o", obj})});
                c.chunkObjects.push_back(obj);
                link.push_back(obj);
            }
            link.push_back("-o");
            link.push_back(c.tmp);
            links.push_back({cold.size(), driver,
                             emitDriverTU(spec, chunks) + key_line,
                             compileArgv(tc, flags, std::move(link))});
        }
        cold.push_back(std::move(c));
    }

    // Pass 2: every cold compile in one pool, then the links of the
    // chunked objects whose chunks all compiled.
    auto collect = [&](const std::vector<CompileStep> &steps) {
        for (const CompileStep &s : steps)
            if (cold[s.cold].error.empty())
                cold[s.cold].error = s.error;
    };
    unsigned runs = runSteps(compiles, options.aotJobs);
    collect(compiles);
    links.erase(std::remove_if(links.begin(), links.end(),
                               [&](const CompileStep &s) {
                                   return !cold[s.cold].error.empty();
                               }),
                links.end());
    runs += runSteps(links, options.aotJobs);
    collect(links);

    // Pass 3: rename each built object into the cache and load it.
    for (Cold &c : cold) {
        for (const std::string &obj : c.chunkObjects)
            fs::remove(obj, ec);
        if (c.error.empty()) {
            fs::rename(c.tmp, c.path, ec);
            if (ec)
                c.error = "cannot rename " + c.tmp + " into the cache (" +
                          ec.message() + ")";
            else if (!loadObject(objects[c.object], c.path,
                                 specs[c.object].entry))
                c.error = "cannot load " + c.path;
        }
        if (c.error.empty())
            continue;
        fs::remove(c.tmp, ec);
        MANTICORE_WARN(engine,
                       specs.size() > 1
                           ? ": partition " + std::to_string(c.object)
                           : std::string(),
                       ": ", c.error,
                       "; falling back to the interpreted tape");
    }
    return runs;
}

} // namespace

void
AotObject::Unload::operator()(void *handle) const
{
    dlclose(handle);
}

const AotToolchain &
aotToolchain(const std::string &override_compiler)
{
    static std::mutex mutex;
    static std::map<std::string, AotToolchain> memo;
    std::lock_guard<std::mutex> lock(mutex);
    auto it = memo.find(override_compiler);
    if (it != memo.end())
        return it->second;

    std::vector<std::string> candidates;
    if (!override_compiler.empty()) {
        candidates.push_back(override_compiler);
    } else if (const char *env = std::getenv("MANTICORE_AOT_CXX")) {
        candidates.push_back(env);
    } else {
        candidates = {"c++", "g++", "clang++"};
    }

    AotToolchain tc;
    std::string probed;
    for (const std::string &cxx : candidates) {
        AotToolchain one = probeOne(cxx);
        if (one.ok) {
            tc = one;
            break;
        }
        if (!probed.empty())
            probed += ", ";
        probed += one.message;
    }
    if (!tc.ok)
        tc.message = "no working toolchain among: " + probed;
    return memo.emplace(override_compiler, std::move(tc))
        .first->second;
}

std::string
aotResolveCacheDir(const EvalOptions &options)
{
    if (!options.aotCacheDir.empty())
        return options.aotCacheDir;
    if (const char *env = std::getenv("MANTICORE_AOT_CACHE"))
        return env;
    const char *tmp = std::getenv("TMPDIR");
    return std::string(tmp && *tmp ? tmp : "/tmp") +
           "/manticore-aot-cache-" +
           std::to_string(static_cast<long>(getuid()));
}

const std::string &
aotHostCpuModel()
{
    static const std::string kModel = detectHostCpu();
    return kModel;
}

// ---------------------------------------------------------------------------
// AotEvaluator: one object for the whole tape
// ---------------------------------------------------------------------------

AotEvaluator::AotEvaluator(Netlist netlist, const EvalOptions &options)
    : CompiledEvaluator(std::move(netlist), options)
{
    _memTable.reserve(_mems.size());
    for (const tape::MemState &m : _mems)
        _memTable.push_back(m.words.data());
    _compilerRuns = buildObjects(
        "netlist.aot",
        {{_tape.data(), _tape.size(), &_mems, _padded,
          "manticore_aot_cycle", liveOutSlots()}},
        options, &_object);
}

std::string
AotEvaluator::emitSource() const
{
    const EmitSpec spec{_tape.data(), _tape.size(), &_mems, _padded,
                        "manticore_aot_cycle", liveOutSlots()};
    return emitUnit(spec, placeResults(spec));
}

void
AotEvaluator::evalCycle()
{
    if (_object.fn)
        _object.fn(_arena.data(), _memTable.data());
    else
        CompiledEvaluator::evalCycle();
}

// ---------------------------------------------------------------------------
// AotParallelEvaluator: one object per partition tape
// ---------------------------------------------------------------------------

AotParallelEvaluator::AotParallelEvaluator(Netlist netlist,
                                           const EvalOptions &options)
    : AotParallelEvaluator(std::move(netlist), options, kAotSyncCost)
{
}

AotParallelEvaluator::AotParallelEvaluator(Netlist netlist,
                                           const EvalOptions &options,
                                           size_t sync_cost)
    : ParallelCompiledEvaluator(std::move(netlist), options, sync_cost)
{
    // The base constructor has lowered, partitioned and spawned the
    // worker pool — but the workers are parked on the batch
    // generation counter until the first run()/step(), so the
    // construction-time reads below and the fn-pointer installs are
    // master-owned.  One process is the serial tape, emitted exactly
    // as netlist.aot emits it, so the two engines share its object.
    _memTable.reserve(_mems.size());
    for (const tape::MemState &m : _mems)
        _memTable.push_back(m.words.data());
    std::vector<EmitSpec> specs;
    for (size_t p = 0; p < numProcesses(); ++p)
        specs.push_back({procTape(p).data(), procTape(p).size(), &_mems,
                         _padded,
                         serial() ? "manticore_aot_cycle"
                                  : "manticore_aot_cycle_p" +
                                        std::to_string(p),
                         procLiveOutSlots(p)});
    _objects.resize(specs.size());
    _compilerRuns = buildObjects("netlist.parallel.aot", specs, options,
                                 _objects.data());
    _aotParts = static_cast<unsigned>(
        std::count_if(_objects.begin(), _objects.end(),
                      [](const AotObject &o) { return o.fn != nullptr; }));
}

const std::string &
AotParallelEvaluator::partitionKey(size_t proc_index) const
{
    MANTICORE_ASSERT(proc_index < _objects.size(), "partition ",
                     proc_index, " out of range");
    return _objects[proc_index].key;
}

const std::string &
AotParallelEvaluator::partitionObject(size_t proc_index) const
{
    MANTICORE_ASSERT(proc_index < _objects.size(), "partition ",
                     proc_index, " out of range");
    return _objects[proc_index].path;
}

void
AotParallelEvaluator::evalCycle()
{
    // Only the one-process engine steps through here.
    if (_objects[0].fn)
        _objects[0].fn(_arena.data(), _memTable.data());
    else
        CompiledEvaluator::evalCycle();
}

void
AotParallelEvaluator::computeTape(size_t proc_index, uint64_t *A)
{
    const AotObject &object = _objects[proc_index];
    if (object.fn)
        object.fn(A, _memTable.data());
    else
        ParallelCompiledEvaluator::computeTape(proc_index, A);
}

} // namespace manticore::netlist
