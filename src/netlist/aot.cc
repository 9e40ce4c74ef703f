#include "netlist/aot.hh"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>

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
 *  can load and call. */
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
    std::string obj = stem + ".so";

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

    std::vector<std::string> argv{cxx};
    for (const std::string &f : probeFlags())
        argv.push_back(f);
    argv.push_back("-I");
    argv.push_back(inc);
    argv.push_back(src);
    argv.push_back("-o");
    argv.push_back(obj);
    CommandResult res = runCommand(argv);

    if (!res.ok()) {
        tc.message = cxx + " (" + firstLine(res.output) + ")";
        fs::remove(src, ec);
        return tc;
    }

    void *handle = dlopen(obj.c_str(), RTLD_NOW | RTLD_LOCAL);
    if (!handle) {
        tc.message = cxx + " (dlopen: " + firstLine(dlerror()) + ")";
    } else {
        auto *fn = reinterpret_cast<unsigned (*)()>(
            dlsym(handle, "manticore_aot_probe"));
        if (!fn || fn() != 3)
            tc.message = cxx + " (probe object misbehaved)";
        else
            tc.ok = true;
        dlclose(handle);
    }

    // Which SIMD flags does this compiler accept?  Laned objects
    // compile -O3 + the survivors; a cross or exotic compiler that
    // rejects -march=native just loses the flag, not the engine.
    if (tc.ok) {
        for (const char *cand :
             {"-march=native", "-mprefer-vector-width=256"}) {
            std::vector<std::string> sargv{cxx, "-std=c++17", "-O3",
                                           "-fPIC", "-shared"};
            for (const std::string &f : tc.simdFlags)
                sargv.push_back(f);
            sargv.push_back(cand);
            sargv.push_back("-I");
            sargv.push_back(inc);
            sargv.push_back(src);
            sargv.push_back("-o");
            sargv.push_back(obj);
            if (runCommand(sargv).ok())
                tc.simdFlags.push_back(cand);
        }
    }
    fs::remove(src, ec);
    fs::remove(obj, ec);
    return tc;
}

// ---------------------------------------------------------------------------
// Codegen: one C++ statement per tape instruction, constants baked in
// ---------------------------------------------------------------------------

std::string
hexU64(uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "0x%llxull",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::string
slot(uint32_t off)
{
    return "A[" + std::to_string(off) + "]";
}

std::string
ptr(uint32_t off)
{
    return "A + " + std::to_string(off);
}

/** The (possibly >64-bit) shift amount, mirroring
 *  tape.cc::shiftAmountLane: wide amounts that do not fit 64 bits
 *  shift everything out (spelled as `width`, which both shl/lshr and
 *  the narrow `amt >= width` guard treat as all-out). */
std::string
shiftAmount(const tape::Instr &in)
{
    if (in.bw <= 64)
        return slot(in.b);
    return "(lo::fitsUint64(" + ptr(in.b) + ", " +
           std::to_string(lo::nlimbs(in.bw)) + "u) ? " + slot(in.b) +
           " : " + std::to_string(in.width) + "ull)";
}

/** Emit the statement for one instruction.  Must mirror the L == 1
 *  instantiation of tape.cc's runImpl exactly — the randomized
 *  differential and the CrossCheck matrix pin this. */
void
emitInstr(std::ostream &os, const tape::Instr &in,
          const std::vector<tape::MemState> &mems)
{
    using tape::Op;
    const std::string dst = slot(in.dst);
    const std::string a = slot(in.a);
    const std::string b = slot(in.b);
    const std::string mask = hexU64(in.mask);
    const std::string W = std::to_string(in.width) + "u";
    const std::string AW = std::to_string(in.aw) + "u";
    const std::string BW = std::to_string(in.bw) + "u";

    os << "    ";
    switch (in.op) {
      case Op::NAdd:
        os << dst << " = (" << a << " + " << b << ") & " << mask << ";";
        break;
      case Op::NSub:
        os << dst << " = (" << a << " - " << b << ") & " << mask << ";";
        break;
      case Op::NMul:
        os << dst << " = (" << a << " * " << b << ") & " << mask << ";";
        break;
      case Op::NAnd:
        os << dst << " = " << a << " & " << b << ";";
        break;
      case Op::NOr:
        os << dst << " = " << a << " | " << b << ";";
        break;
      case Op::NXor:
        os << dst << " = " << a << " ^ " << b << ";";
        break;
      case Op::NNot:
        os << dst << " = ~" << a << " & " << mask << ";";
        break;
      case Op::NShl:
        os << "{ u64 amt = " << shiftAmount(in) << "; " << dst
           << " = amt >= " << in.width << "ull ? 0 : (" << a
           << " << amt) & " << mask << "; }";
        break;
      case Op::NLshr:
        os << "{ u64 amt = " << shiftAmount(in) << "; " << dst
           << " = amt >= " << in.width << "ull ? 0 : " << a
           << " >> amt; }";
        break;
      case Op::NEq:
        os << dst << " = " << a << " == " << b << ";";
        break;
      case Op::NUlt:
        os << dst << " = " << a << " < " << b << ";";
        break;
      case Op::NSlt: {
        std::string sbit = hexU64(1ull << (in.aw - 1));
        os << dst << " = (" << a << " ^ " << sbit << ") < (" << b
           << " ^ " << sbit << ");";
        break;
      }
      case Op::NMux:
        os << dst << " = " << a << " ? " << b << " : " << slot(in.c)
           << ";";
        break;
      case Op::NSlice:
        os << dst << " = (" << a << " >> " << in.lo << ") & " << mask
           << ";";
        break;
      case Op::NConcat:
        os << dst << " = (" << a << " << " << in.bw << ") | " << b
           << ";";
        break;
      case Op::NZExt:
        os << dst << " = " << a << ";";
        break;
      case Op::NSExt:
        if (in.aw < in.width) {
            std::string sbit = hexU64(1ull << (in.aw - 1));
            std::string fill = hexU64((~0ull << in.aw) & in.mask);
            os << "{ u64 v = " << a << "; " << dst << " = (v & " << sbit
               << ") ? (v | " << fill << ") : v; }";
        } else {
            os << dst << " = " << a << ";";
        }
        break;
      case Op::NRedOr:
        os << dst << " = " << a << " != 0;";
        break;
      case Op::NRedAnd:
        os << dst << " = " << a << " == " << mask << ";";
        break;
      case Op::NRedXor:
        os << dst << " = (u64)(__builtin_popcountll(" << a
           << ") & 1);";
        break;
      case Op::NMemRead:
        os << dst << " = M[" << in.lo << "][" << a << " % "
           << mems[in.lo].depth << "ull];";
        break;
      case Op::WAdd:
        os << "lo::add(" << ptr(in.dst) << ", " << ptr(in.a) << ", "
           << ptr(in.b) << ", " << W << ");";
        break;
      case Op::WSub:
        os << "lo::sub(" << ptr(in.dst) << ", " << ptr(in.a) << ", "
           << ptr(in.b) << ", " << W << ");";
        break;
      case Op::WMul:
        os << "lo::mul(" << ptr(in.dst) << ", " << ptr(in.a) << ", "
           << ptr(in.b) << ", " << W << ");";
        break;
      case Op::WAnd:
        os << "lo::bitAnd(" << ptr(in.dst) << ", " << ptr(in.a) << ", "
           << ptr(in.b) << ", " << W << ");";
        break;
      case Op::WOr:
        os << "lo::bitOr(" << ptr(in.dst) << ", " << ptr(in.a) << ", "
           << ptr(in.b) << ", " << W << ");";
        break;
      case Op::WXor:
        os << "lo::bitXor(" << ptr(in.dst) << ", " << ptr(in.a) << ", "
           << ptr(in.b) << ", " << W << ");";
        break;
      case Op::WNot:
        os << "lo::bitNot(" << ptr(in.dst) << ", " << ptr(in.a) << ", "
           << W << ");";
        break;
      case Op::WShl:
        os << "lo::shl(" << ptr(in.dst) << ", " << ptr(in.a) << ", "
           << shiftAmount(in) << ", " << W << ");";
        break;
      case Op::WLshr:
        os << "lo::lshr(" << ptr(in.dst) << ", " << ptr(in.a) << ", "
           << shiftAmount(in) << ", " << W << ");";
        break;
      case Op::WEq:
        os << dst << " = lo::eq(" << ptr(in.a) << ", " << ptr(in.b)
           << ", " << AW << ");";
        break;
      case Op::WUlt:
        os << dst << " = lo::ult(" << ptr(in.a) << ", " << ptr(in.b)
           << ", " << AW << ");";
        break;
      case Op::WSlt:
        os << dst << " = lo::slt(" << ptr(in.a) << ", " << ptr(in.b)
           << ", " << AW << ");";
        break;
      case Op::WMux:
        os << "lo::copy(" << ptr(in.dst) << ", " << a << " ? "
           << ptr(in.b) << " : " << ptr(in.c) << ", "
           << lo::nlimbs(in.width) << "u);";
        break;
      case Op::WSlice:
        os << "lo::slice(" << ptr(in.dst) << ", " << ptr(in.a) << ", "
           << AW << ", " << in.lo << "u, " << W << ");";
        break;
      case Op::WConcat:
        os << "lo::concat(" << ptr(in.dst) << ", " << ptr(in.a) << ", "
           << ptr(in.b) << ", " << AW << ", " << BW << ");";
        break;
      case Op::WZExt:
        os << "lo::zext(" << ptr(in.dst) << ", " << ptr(in.a) << ", "
           << W << ", " << AW << ");";
        break;
      case Op::WSExt:
        os << "lo::sext(" << ptr(in.dst) << ", " << ptr(in.a) << ", "
           << W << ", " << AW << ");";
        break;
      case Op::WRedOr:
        os << dst << " = lo::reduceOr(" << ptr(in.a) << ", " << AW
           << ");";
        break;
      case Op::WRedAnd:
        os << dst << " = lo::reduceAnd(" << ptr(in.a) << ", " << AW
           << ");";
        break;
      case Op::WRedXor:
        os << dst << " = lo::reduceXor(" << ptr(in.a) << ", " << AW
           << ");";
        break;
      case Op::WMemRead: {
        const tape::MemState &m = mems[in.lo];
        os << "lo::copy(" << ptr(in.dst) << ", M[" << in.lo << "] + ("
           << a << " % " << m.depth << "ull) * " << m.wordLimbs
           << "u, " << m.wordLimbs << "u);";
        break;
      }
    }
    os << "\n";
}

// ---------------------------------------------------------------------------
// Laned codegen: tape.cc runImpl<L> shapes with L a baked constant
// ---------------------------------------------------------------------------

std::string
laneIdx(uint32_t off, uint32_t stride)
{
    std::string s = std::to_string(off) + " + l";
    if (stride != 1)
        s += " * " + std::to_string(stride) + "u";
    return s;
}

std::string
laneSlot(uint32_t off, uint32_t stride)
{
    return "A[" + laneIdx(off, stride) + "]";
}

std::string
lanePtr(uint32_t off, uint32_t stride)
{
    return "A + " + laneIdx(off, stride);
}

/** Per-lane shift amount, mirroring tape.cc::shiftAmountLane (the
 *  lane stride of the amount operand is nlimbs(bw)). */
std::string
shiftAmountLaned(const tape::Instr &in)
{
    const uint32_t bs = lo::nlimbs(in.bw);
    if (in.bw <= 64)
        return laneSlot(in.b, bs);
    return "(lo::fitsUint64(" + lanePtr(in.b, bs) + ", " +
           std::to_string(bs) + "u) ? " + laneSlot(in.b, bs) + " : " +
           std::to_string(in.width) + "ull)";
}

/** Emit the statement(s) for one instruction at compile-time lane
 *  count L > 1.  Must mirror tape.cc's runImpl<L> exactly: narrow
 *  ops call the width-templated laned kernels, wide ops and memory
 *  reads become constant-trip-count per-lane loops with the arena
 *  lane strides baked in. */
void
emitInstrLaned(std::ostream &os, const tape::Instr &in,
               const std::vector<tape::MemState> &mems, unsigned L)
{
    using tape::Op;
    const std::string T = "<" + std::to_string(L) + ">";
    const std::string Lu = std::to_string(L) + "u";
    const std::string FOR =
        "for (unsigned l = 0; l < " + Lu + "; ++l) ";
    const std::string d = ptr(in.dst);
    const std::string a = ptr(in.a);
    const std::string b = ptr(in.b);
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
        os << FOR << "{ u64 amt = " << shiftAmountLaned(in) << "; "
           << laneSlot(in.dst, 1) << " = amt >= " << in.width
           << "ull ? 0 : (" << laneSlot(in.a, 1) << " << amt) & "
           << mask << "; }";
        break;
      case Op::NLshr:
        os << FOR << "{ u64 amt = " << shiftAmountLaned(in) << "; "
           << laneSlot(in.dst, 1) << " = amt >= " << in.width
           << "ull ? 0 : " << laneSlot(in.a, 1) << " >> amt; }";
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
           << ", " << ptr(in.c) << ", " << Lu << ");";
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
        os << FOR << laneSlot(in.dst, 1) << " = M[" << in.lo << "][("
           << laneSlot(in.a, as) << " % " << mems[in.lo].depth
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
        os << FOR << "lo::" << fn << "(" << lanePtr(in.dst, s) << ", "
           << lanePtr(in.a, s) << ", " << lanePtr(in.b, s) << ", " << W
           << ");";
        break;
      }
      case Op::WNot: {
        const uint32_t s = lo::nlimbs(in.width);
        os << FOR << "lo::bitNot(" << lanePtr(in.dst, s) << ", "
           << lanePtr(in.a, s) << ", " << W << ");";
        break;
      }
      case Op::WShl:
      case Op::WLshr: {
        const uint32_t s = lo::nlimbs(in.width);
        os << FOR << "lo::" << (in.op == Op::WShl ? "shl" : "lshr")
           << "(" << lanePtr(in.dst, s) << ", " << lanePtr(in.a, s)
           << ", " << shiftAmountLaned(in) << ", " << W << ");";
        break;
      }
      case Op::WEq:
      case Op::WUlt:
      case Op::WSlt: {
        const uint32_t s = lo::nlimbs(in.aw);
        const char *fn = in.op == Op::WEq    ? "eq"
                         : in.op == Op::WUlt ? "ult"
                                             : "slt";
        os << FOR << laneSlot(in.dst, 1) << " = lo::" << fn << "("
           << lanePtr(in.a, s) << ", " << lanePtr(in.b, s) << ", "
           << AW << ");";
        break;
      }
      case Op::WMux: {
        const uint32_t ss = lo::nlimbs(in.aw);
        const uint32_t s = lo::nlimbs(in.width);
        os << FOR << "lo::copy(" << lanePtr(in.dst, s) << ", "
           << laneSlot(in.a, ss) << " ? " << lanePtr(in.b, s) << " : "
           << lanePtr(in.c, s) << ", " << s << "u);";
        break;
      }
      case Op::WSlice: {
        const uint32_t as = lo::nlimbs(in.aw);
        const uint32_t s = lo::nlimbs(in.width);
        os << FOR << "lo::slice(" << lanePtr(in.dst, s) << ", "
           << lanePtr(in.a, as) << ", " << AW << ", " << in.lo
           << "u, " << W << ");";
        break;
      }
      case Op::WConcat: {
        const uint32_t as = lo::nlimbs(in.aw);
        const uint32_t bs = lo::nlimbs(in.bw);
        const uint32_t s = lo::nlimbs(in.width);
        os << FOR << "lo::concat(" << lanePtr(in.dst, s) << ", "
           << lanePtr(in.a, as) << ", " << lanePtr(in.b, bs) << ", "
           << AW << ", " << BW << ");";
        break;
      }
      case Op::WZExt:
      case Op::WSExt: {
        const uint32_t as = lo::nlimbs(in.aw);
        const uint32_t s = lo::nlimbs(in.width);
        os << FOR << "lo::"
           << (in.op == Op::WZExt ? "zext" : "sext") << "("
           << lanePtr(in.dst, s) << ", " << lanePtr(in.a, as) << ", "
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
        os << FOR << laneSlot(in.dst, 1) << " = lo::" << fn << "("
           << lanePtr(in.a, as) << ", " << AW << ");";
        break;
      }
      case Op::WMemRead: {
        const uint32_t as = lo::nlimbs(in.aw);
        const tape::MemState &m = mems[in.lo];
        os << FOR << "lo::copy(" << lanePtr(in.dst, m.wordLimbs)
           << ", M[" << in.lo << "] + ((" << laneSlot(in.a, as)
           << " % " << m.depth << "ull) * " << Lu << " + l) * "
           << m.wordLimbs << "u, " << m.wordLimbs << "u);";
        break;
      }
    }
    os << "\n";
}

void
emitStmt(std::ostream &os, const tape::Instr &in,
         const std::vector<tape::MemState> &mems, unsigned lanes)
{
    if (lanes == 1)
        emitInstr(os, in, mems);
    else
        emitInstrLaned(os, in, mems, lanes);
}

// ---------------------------------------------------------------------------
// Translation units: single combined, per-chunk, and the chunk driver
// ---------------------------------------------------------------------------

/** One static function per ~1k statements bounds the host compiler's
 *  per-function work (large designs lower to tapes of tens of
 *  thousands of ops; one giant function makes -O2 register
 *  allocation superlinear) and is also the cold-start concurrency
 *  grain: each chunk can compile as its own translation unit. */
constexpr size_t kChunk = 1024;

size_t
chunkCountOf(size_t tape_len)
{
    return (tape_len + kChunk - 1) / kChunk;
}

/** What to emit: a tape slice, its memory geometry, the compile-time
 *  lane count and the exported entry-point name. */
struct EmitSpec
{
    const tape::Instr *instrs;
    size_t count;
    const std::vector<tape::MemState> *mems;
    unsigned lanes;
    std::string entry;
};

const char *
emitHeader()
{
    return "// Generated by manticore netlist.aot: the lowered flat\n"
           "// tape as straight-line C++, one statement per tape op,\n"
           "// arena offsets / widths / masks baked in.  Do not edit;\n"
           "// keyed by the manticore_aot_key definition at the end.\n"
           "#include <cstdint>\n"
           "#include \"support/limbops.hh\"\n"
           "\n"
           "namespace lo = ::manticore::limbops;\n"
           "using u64 = uint64_t;\n"
           "\n";
}

/** The whole tape as one translation unit (chunked into static
 *  functions).  Also the canonical source the cache key hashes,
 *  whether or not the build is split into chunk TUs. */
std::string
emitUnit(const EmitSpec &spec)
{
    std::ostringstream os;
    os << emitHeader();
    size_t chunks = chunkCountOf(spec.count);
    for (size_t c = 0; c < chunks; ++c) {
        os << "static void cycle_chunk" << c
           << "(u64 *A, const u64 *const *M)\n{\n"
              "    (void)A; (void)M;\n";
        size_t end = std::min(spec.count, (c + 1) * kChunk);
        for (size_t i = c * kChunk; i < end; ++i)
            emitStmt(os, spec.instrs[i], *spec.mems, spec.lanes);
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
emitChunkTU(const EmitSpec &spec, size_t c)
{
    std::ostringstream os;
    os << emitHeader();
    os << "extern \"C\" void " << spec.entry << "_chunk" << c
       << "(u64 *A, const u64 *const *M)\n{\n"
          "    (void)A; (void)M;\n";
    size_t end = std::min(spec.count, (c + 1) * kChunk);
    for (size_t i = c * kChunk; i < end; ++i)
        emitStmt(os, spec.instrs[i], *spec.mems, spec.lanes);
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
// Cache keys and concurrent compilation
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

unsigned
buildJobs(unsigned requested, size_t tasks)
{
    unsigned jobs = requested != 0
                        ? requested
                        : std::max(1u, std::thread::hardware_concurrency());
    return static_cast<unsigned>(
        std::min<size_t>(jobs, std::max<size_t>(tasks, 1)));
}

/** Run the tasks on up to `jobs` threads (the caller's thread is one
 *  of them).  Tasks invoke support/subprocess, which is fork/exec —
 *  safe from concurrent std::threads. */
void
runConcurrently(std::vector<std::function<void()>> tasks, unsigned jobs)
{
    if (tasks.empty())
        return;
    if (jobs <= 1) {
        for (auto &task : tasks)
            task();
        return;
    }
    std::atomic<size_t> next{0};
    auto worker = [&] {
        for (size_t i = next.fetch_add(1); i < tasks.size();
             i = next.fetch_add(1))
            tasks[i]();
    };
    std::vector<std::thread> threads;
    for (unsigned j = 1; j < jobs; ++j)
        threads.emplace_back(worker);
    worker();
    for (std::thread &t : threads)
        t.join();
}

CommandResult
runCompile(const std::string &cxx, const std::vector<std::string> &flags,
           const std::vector<std::string> &extra)
{
    std::vector<std::string> argv{cxx};
    argv.insert(argv.end(), flags.begin(), flags.end());
    argv.push_back("-I");
    argv.push_back(includeDir());
    argv.insert(argv.end(), extra.begin(), extra.end());
    return runCommand(argv);
}

} // namespace

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

AotEvaluator::AotEvaluator(Netlist netlist, const EvalOptions &options)
    : CompiledEvaluator(std::move(netlist), options)
{
    _memTable.reserve(_mems.size());
    for (const tape::MemState &m : _mems)
        _memTable.push_back(m.words.data());
    build(options);
}

AotEvaluator::~AotEvaluator()
{
    if (_handle)
        dlclose(_handle);
}

std::string
AotEvaluator::emitSource() const
{
    EmitSpec spec{_tape.data(), _tape.size(), &_mems, _padded,
                  "manticore_aot_cycle"};
    return emitUnit(spec);
}

bool
AotEvaluator::load(const std::string &path)
{
    void *handle = dlopen(path.c_str(), RTLD_NOW | RTLD_LOCAL);
    if (!handle)
        return false;
    const char *key =
        static_cast<const char *>(dlsym(handle, "manticore_aot_key"));
    void *fn = dlsym(handle, "manticore_aot_cycle");
    if (!key || !fn || _key != key) {
        dlclose(handle);
        return false;
    }
    _handle = handle;
    _cycleFn = reinterpret_cast<CycleFn>(fn);
    _objectPath = path;
    return true;
}

void
AotEvaluator::build(const EvalOptions &options)
{
    const AotToolchain &tc = aotToolchain(options.aotCompiler);
    if (!tc.ok) {
        MANTICORE_WARN("netlist.aot: ", tc.message,
                       "; falling back to the interpreted tape");
        return;
    }

    const std::vector<std::string> flags = objectFlags(tc, _padded);
    std::string source = emitSource();
    _key = objectKey(source, flags, tc);

    std::string dir = aotResolveCacheDir(options);
    std::error_code ec;
    fs::create_directories(dir, ec);
    if (ec) {
        MANTICORE_WARN("netlist.aot: cannot create cache dir ", dir,
                       " (", ec.message(),
                       "); falling back to the interpreted tape");
        return;
    }
    std::string stem = dir + "/manticore-aot-" + _key;
    std::string obj = stem + ".so";

    // Warm path: a cached object whose embedded key matches.  A
    // truncated / corrupted / stale entry fails load() and is
    // rebuilt below.
    if (fs::exists(obj, ec) && load(obj)) {
        _cacheHit = true;
        return;
    }
    fs::remove(obj, ec);

    const std::string key_line =
        "\nextern \"C\" const char manticore_aot_key[] = \"" + _key +
        "\";\n";
    std::string obj_tmp = obj + tmpSuffix();
    EmitSpec spec{_tape.data(), _tape.size(), &_mems, _padded,
                  "manticore_aot_cycle"};
    const size_t chunks = chunkCountOf(_tape.size());

    if (chunks <= 1) {
        // One-chunk tape: a single combined compile+link invocation.
        std::string src = stem + ".cc";
        if (!writeFileAtomic(src, source + key_line)) {
            MANTICORE_WARN("netlist.aot: cannot write ", src,
                           "; falling back to the interpreted tape");
            return;
        }
        ++_compilerRuns;
        CommandResult res = runCompile(tc.compiler, flags,
                                       {"-shared", src, "-o", obj_tmp});
        if (!res.ok()) {
            fs::remove(obj_tmp, ec);
            MANTICORE_WARN("netlist.aot: ", tc.compiler,
                           " failed on the generated source (",
                           firstLine(res.output),
                           "); falling back to the interpreted tape");
            return;
        }
    } else {
        // Cold-start concurrency: every ≤1024-statement chunk is its
        // own translation unit; the chunk TUs compile through
        // concurrent subprocess invocations (bounded by aotJobs),
        // then the driver TU is compiled into the link step.
        std::vector<std::string> chunk_objs(chunks);
        std::vector<std::function<void()>> tasks;
        std::atomic<unsigned> runs{0};
        std::atomic<bool> failed{false};
        std::mutex err_mutex;
        std::string error;
        for (size_t c = 0; c < chunks; ++c) {
            std::string csrc =
                stem + ".chunk" + std::to_string(c) + ".cc";
            std::string cobj = obj_tmp + "." + std::to_string(c) + ".o";
            chunk_objs[c] = cobj;
            std::string csource = emitChunkTU(spec, c);
            tasks.push_back([csrc, cobj, csource, &flags, &runs,
                             &failed, &err_mutex, &error,
                             compiler = tc.compiler] {
                if (failed.load(std::memory_order_relaxed))
                    return;
                if (!writeFileAtomic(csrc, csource)) {
                    std::lock_guard<std::mutex> lock(err_mutex);
                    if (error.empty())
                        error = "cannot write " + csrc;
                    failed.store(true, std::memory_order_relaxed);
                    return;
                }
                runs.fetch_add(1, std::memory_order_relaxed);
                CommandResult res = runCompile(
                    compiler, flags, {"-c", csrc, "-o", cobj});
                if (!res.ok()) {
                    std::lock_guard<std::mutex> lock(err_mutex);
                    if (error.empty())
                        error = firstLine(res.output);
                    failed.store(true, std::memory_order_relaxed);
                }
            });
        }
        runConcurrently(std::move(tasks),
                        buildJobs(options.aotJobs, chunks));
        _compilerRuns += runs.load();
        if (failed.load()) {
            for (const std::string &o : chunk_objs)
                fs::remove(o, ec);
            MANTICORE_WARN("netlist.aot: ", tc.compiler,
                           " failed on the generated source (", error,
                           "); falling back to the interpreted tape");
            return;
        }
        std::string dsrc = stem + ".driver.cc";
        if (!writeFileAtomic(dsrc, emitDriverTU(spec, chunks) +
                                       key_line)) {
            for (const std::string &o : chunk_objs)
                fs::remove(o, ec);
            MANTICORE_WARN("netlist.aot: cannot write ", dsrc,
                           "; falling back to the interpreted tape");
            return;
        }
        std::vector<std::string> link{"-shared", dsrc};
        for (const std::string &o : chunk_objs)
            link.push_back(o);
        link.push_back("-o");
        link.push_back(obj_tmp);
        ++_compilerRuns;
        CommandResult res = runCompile(tc.compiler, flags, link);
        for (const std::string &o : chunk_objs)
            fs::remove(o, ec);
        if (!res.ok()) {
            fs::remove(obj_tmp, ec);
            MANTICORE_WARN("netlist.aot: ", tc.compiler,
                           " failed linking the chunk objects (",
                           firstLine(res.output),
                           "); falling back to the interpreted tape");
            return;
        }
    }

    fs::rename(obj_tmp, obj, ec);
    if (ec || !load(obj)) {
        fs::remove(obj_tmp, ec);
        MANTICORE_WARN("netlist.aot: cannot load ", obj,
                       "; falling back to the interpreted tape");
        return;
    }
}

void
AotEvaluator::evalCycle()
{
    if (_cycleFn)
        _cycleFn(_arena.data(), _memTable.data());
    else
        CompiledEvaluator::evalCycle();
}

// ---------------------------------------------------------------------------
// AotParallelEvaluator: per-partition compiled objects
// ---------------------------------------------------------------------------

AotParallelEvaluator::AotParallelEvaluator(Netlist netlist,
                                           const EvalOptions &options)
    : ParallelCompiledEvaluator(std::move(netlist), options)
{
    // The base constructor has lowered, partitioned and spawned the
    // worker pool — but the workers are parked on the batch
    // generation counter until the first run()/step(), so the
    // construction-time reads below and the fn-pointer installs are
    // master-owned.
    const std::vector<tape::MemState> &mems = memStates();
    _memTable.reserve(mems.size());
    for (const tape::MemState &m : mems)
        _memTable.push_back(m.words.data());
    _parts.resize(numProcesses());
    buildAll(options);
}

AotParallelEvaluator::~AotParallelEvaluator()
{
    // Workers are parked between batches and the base destructor
    // makes them exit without touching the tapes again, so nothing
    // can be inside a compiled cycle function while we unload.
    for (Part &p : _parts)
        if (p.handle)
            dlclose(p.handle);
}

std::string
AotParallelEvaluator::emitPartitionSource(size_t proc_index) const
{
    const std::vector<tape::Instr> &tape = procTape(proc_index);
    EmitSpec spec{tape.data(), tape.size(), &memStates(),
                  paddedLanes(),
                  "manticore_aot_cycle_p" + std::to_string(proc_index)};
    return emitUnit(spec);
}

const std::string &
AotParallelEvaluator::partitionKey(size_t proc_index) const
{
    MANTICORE_ASSERT(proc_index < _parts.size(), "partition ",
                     proc_index, " out of range");
    return _parts[proc_index].key;
}

const std::string &
AotParallelEvaluator::partitionObject(size_t proc_index) const
{
    MANTICORE_ASSERT(proc_index < _parts.size(), "partition ",
                     proc_index, " out of range");
    return _parts[proc_index].object;
}

bool
AotParallelEvaluator::loadPart(size_t proc_index,
                               const std::string &path)
{
    // RTLD_LOCAL keeps each object's manticore_aot_key (and entry
    // point) out of the global namespace, so K partition objects
    // coexist in one process.
    void *handle = dlopen(path.c_str(), RTLD_NOW | RTLD_LOCAL);
    if (!handle)
        return false;
    const char *key =
        static_cast<const char *>(dlsym(handle, "manticore_aot_key"));
    std::string entry =
        "manticore_aot_cycle_p" + std::to_string(proc_index);
    void *fn = dlsym(handle, entry.c_str());
    if (!key || !fn || _parts[proc_index].key != key) {
        dlclose(handle);
        return false;
    }
    _parts[proc_index].handle = handle;
    _parts[proc_index].fn = reinterpret_cast<CycleFn>(fn);
    _parts[proc_index].object = path;
    ++_aotParts;
    return true;
}

void
AotParallelEvaluator::buildAll(const EvalOptions &options)
{
    const size_t n = _parts.size();
    if (n == 0)
        return;

    const AotToolchain &tc = aotToolchain(options.aotCompiler);
    if (!tc.ok) {
        MANTICORE_WARN("netlist.parallel.aot: ", tc.message,
                       "; falling back to the interpreted tapes");
        return;
    }

    const std::vector<std::string> flags =
        objectFlags(tc, paddedLanes());
    std::string dir = aotResolveCacheDir(options);
    std::error_code ec;
    fs::create_directories(dir, ec);
    if (ec) {
        MANTICORE_WARN("netlist.parallel.aot: cannot create cache dir ",
                       dir, " (", ec.message(),
                       "); falling back to the interpreted tapes");
        return;
    }

    // Pass 1 (master): emit every partition's source, compute its
    // key (each hashes that partition's own tape slice, so one
    // partition's corruption rebuilds one object), try the cache.
    struct Cold
    {
        size_t p;
        std::string src_text, src, obj, obj_tmp;
    };
    std::vector<Cold> cold;
    for (size_t p = 0; p < n; ++p) {
        std::string source = emitPartitionSource(p);
        _parts[p].key = objectKey(source, flags, tc);
        std::string stem = dir + "/manticore-aot-" + _parts[p].key;
        std::string obj = stem + ".so";
        if (fs::exists(obj, ec) && loadPart(p, obj))
            continue;
        fs::remove(obj, ec);
        Cold c;
        c.p = p;
        c.src_text = source +
                     "\nextern \"C\" const char manticore_aot_key[] = "
                     "\"" +
                     _parts[p].key + "\";\n";
        c.src = stem + ".cc";
        c.obj = obj;
        c.obj_tmp = obj + tmpSuffix();
        cold.push_back(std::move(c));
    }

    // Pass 2: cold builds run the toolchain concurrently — one
    // subprocess per partition object, bounded by aotJobs.
    std::atomic<unsigned> runs{0};
    std::vector<std::string> errors(n);
    std::vector<uint8_t> built(n, 0);
    std::vector<std::function<void()>> tasks;
    for (const Cold &c : cold) {
        tasks.push_back([&c, &flags, &runs, &errors, &built,
                         compiler = tc.compiler] {
            std::error_code tec;
            if (!writeFileAtomic(c.src, c.src_text)) {
                errors[c.p] = "cannot write " + c.src;
                return;
            }
            runs.fetch_add(1, std::memory_order_relaxed);
            CommandResult res = runCompile(
                compiler, flags, {"-shared", c.src, "-o", c.obj_tmp});
            if (!res.ok()) {
                fs::remove(c.obj_tmp, tec);
                errors[c.p] = firstLine(res.output);
                return;
            }
            fs::rename(c.obj_tmp, c.obj, tec);
            if (tec) {
                errors[c.p] = "cannot rename " + c.obj_tmp +
                              " into the cache (" + tec.message() + ")";
                fs::remove(c.obj_tmp, tec);
                return;
            }
            built[c.p] = 1;
        });
    }
    runConcurrently(std::move(tasks),
                    buildJobs(options.aotJobs, cold.size()));
    _compilerRuns += runs.load();

    // Pass 3 (master): dlopen the freshly built objects; a partition
    // whose object failed degrades alone — its computeTape stays on
    // the interpreted tape.
    for (const Cold &c : cold) {
        if (built[c.p] && loadPart(c.p, c.obj))
            continue;
        MANTICORE_WARN(
            "netlist.parallel.aot: partition ", c.p, ": ",
            errors[c.p].empty()
                ? std::string("object failed to load/verify")
                : errors[c.p],
            "; falling back to the interpreted tape");
    }
    _usingAot = _aotParts == n;
}

void
AotParallelEvaluator::computeTape(size_t proc_index)
{
    const Part &part = _parts[proc_index];
    if (part.fn)
        part.fn(arenaData(), _memTable.data());
    else
        ParallelCompiledEvaluator::computeTape(proc_index);
}

} // namespace manticore::netlist
