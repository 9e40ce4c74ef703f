/**
 * @file
 * SIMD proof for the laned limb kernels: disassemble the built
 * manticore_simd archive (the named lanedFoo{2,4,8,16} instantiations
 * from src/exec/lane_kernels.cc) and FAIL unless vector instructions
 * actually landed at the instantiated widths.  This keeps the
 * "demonstrably auto-vectorizes" property of the ensemble substrate
 * honest across compiler upgrades and flag regressions — a silent
 * fall-back to scalar loops would otherwise only show up as a bench
 * slowdown.
 *
 *   check_vectorized <path/to/libmanticore_simd.a>
 *   check_vectorized --aot
 *
 * Policy (archive mode):
 *  - widths 4, 8, 16 must each have at least one kernel whose body
 *    uses vector registers (x86 xmm/ymm/zmm, AArch64 v<N>.<lanes>);
 *    the pure-bitwise kernels vectorize on every SIMD ISA, so zero
 *    hits means the flags or the loop shape regressed;
 *  - width 2 is reported but not required: two 64-bit limbs fit the
 *    scalar pipes, and the cost model may legitimately prefer them.
 *
 * `--aot` proves the SAME property for the laned AOT codegen path
 * (netlist.aot with lanes > 1): it builds the laned cycle objects of
 * two mixing designs at widths 4, 8 and 16 through AotEvaluator —
 * into a private throwaway cache — and disassembles each dlopen'd
 * .so.  The small design builds as one translation unit and must use
 * vector registers in its cycle function; the large one spans at
 * least two chunks (netlist::aotChunkCount), builds as chunk TUs
 * plus a driver, and must use vector registers in every
 * `_chunk<k>` function.  A laned object regressing to scalar code
 * would otherwise only show up as an ensemble-bench slowdown.
 *
 * Exit codes: 0 pass, 1 fail, 77 skip (no objdump/llvm-objdump on
 * PATH, an object format this checker does not know, or --aot
 * without a working host toolchain) — wired as SKIP_RETURN_CODE in
 * CMake so ctest reports it as a skip, not a pass.
 */

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <vector>

#include <unistd.h>

#include "netlist/aot.hh"
#include "netlist/builder.hh"

namespace {

/** Run one command, capture stdout; empty on spawn failure. */
std::string
capture(const std::string &cmd)
{
    std::string out;
    FILE *p = popen(cmd.c_str(), "r");
    if (!p)
        return out;
    char buf[4096];
    size_t n;
    while ((n = fread(buf, 1, sizeof buf, p)) > 0)
        out.append(buf, n);
    int rc = pclose(p);
    if (rc != 0)
        out.clear();
    return out;
}

/** "lanedAdd16" -> width 16; 0 when the line is not a laned-kernel
 *  symbol header.  Works on mangled names: the width digits are
 *  terminated by the mangling's 'E'. */
unsigned
lanedSymbolWidth(const std::string &line, std::string &kernel)
{
    // Symbol headers look like "0000... <_ZN...9lanedAdd8EPm...>:".
    if (line.empty() || line.back() != ':' ||
        line.find('<') == std::string::npos)
        return 0;
    size_t at = line.find("laned");
    if (at == std::string::npos)
        return 0;
    size_t i = at + 5;
    std::string name;
    while (i < line.size() && std::isalpha(static_cast<unsigned char>(
                                  line[i])))
        name.push_back(line[i++]);
    unsigned width = 0;
    while (i < line.size() && std::isdigit(static_cast<unsigned char>(
                                  line[i])))
        width = width * 10 + (line[i++] - '0');
    kernel = name;
    return width;
}

bool
isVectorLineX86(const std::string &line)
{
    return line.find("%xmm") != std::string::npos ||
           line.find("%ymm") != std::string::npos ||
           line.find("%zmm") != std::string::npos;
}

bool
isVectorLineAArch64(const std::string &line)
{
    // NEON operands: "v3.2d", "v12.4s", ... after a tab or ", ".
    for (size_t i = 0; i + 3 < line.size(); ++i) {
        if (line[i] != 'v' ||
            !std::isdigit(static_cast<unsigned char>(line[i + 1])))
            continue;
        if (i > 0 && line[i - 1] != ' ' && line[i - 1] != '\t' &&
            line[i - 1] != ',')
            continue;
        size_t j = i + 1;
        while (j < line.size() &&
               std::isdigit(static_cast<unsigned char>(line[j])))
            ++j;
        if (j < line.size() && line[j] == '.')
            return true;
    }
    return false;
}

/** Disassemble `path` with the first working disassembler; empty on
 *  none.  `tool` reports which one ran. */
std::string
disassemble(const std::string &path, std::string &tool)
{
    for (const char *candidate : {"objdump", "llvm-objdump"}) {
        std::string cmd = std::string(candidate) + " -d '" + path +
                          "' 2>/dev/null";
        std::string disasm = capture(cmd);
        if (!disasm.empty()) {
            tool = candidate;
            return disasm;
        }
    }
    return {};
}

/** A design whose tape mixes narrow adds / xors / muxes / compares
 *  over a ring of `n` registers (~8 statements each) — every op
 *  lowers to a laned kernel call in the emitted source, so the laned
 *  object has plenty to vectorize. */
manticore::netlist::Netlist
mixingDesign(unsigned n)
{
    using namespace manticore;
    netlist::CircuitBuilder b("check_vectorized_aot");
    std::vector<netlist::RegHandle> regs;
    for (unsigned i = 0; i < n; ++i)
        regs.push_back(b.reg("r" + std::to_string(i), 32, i + 1));
    for (unsigned i = 0; i < n; ++i) {
        netlist::Signal a = regs[i].read();
        netlist::Signal c = regs[(i + 1) % n].read();
        netlist::Signal mixed =
            (a + c) ^ (a & b.lit(32, 0x9e3779b9ull)) ^ c.lshr(3);
        b.next(regs[i], b.mux(a < c, mixed, mixed + b.lit(32, 1)));
    }
    return b.build();
}

/** Vector lines per cycle symbol of a disassembled AOT object, keyed
 *  by symbol name (the .so also carries loader scaffolding, which is
 *  skipped). */
std::map<std::string, size_t>
cycleVectorLines(const std::string &disasm, bool x86)
{
    std::map<std::string, size_t> hits;
    std::string symbol;
    size_t pos = 0;
    while (pos < disasm.size()) {
        size_t eol = disasm.find('\n', pos);
        if (eol == std::string::npos)
            eol = disasm.size();
        std::string line = disasm.substr(pos, eol - pos);
        pos = eol + 1;
        size_t open = line.find('<');
        if (!line.empty() && line.back() == ':' &&
            open != std::string::npos) {
            size_t close = line.find('>', open);
            symbol = line.substr(open + 1, close - open - 1);
            if (symbol.find("cycle") != std::string::npos)
                hits.emplace(symbol, 0);
            else
                symbol.clear();
            continue;
        }
        if (line.empty()) {
            symbol.clear();
            continue;
        }
        if (!symbol.empty() &&
            (x86 ? isVectorLineX86(line) : isVectorLineAArch64(line)))
            ++hits[symbol];
    }
    return hits;
}

/** Chunk index of a `<entry>_chunk<k>` symbol (any `.cold`-style
 *  suffix belongs to the same chunk); -1 for other symbols. */
long
chunkIndex(const std::string &symbol)
{
    size_t at = symbol.find("_chunk");
    if (at == std::string::npos)
        return -1;
    at += 6;
    if (at >= symbol.size() ||
        !std::isdigit(static_cast<unsigned char>(symbol[at])))
        return -1;
    return std::strtol(symbol.c_str() + at, nullptr, 10);
}

/** Build the mixing design over `regs` registers at `width` lanes
 *  into `cache` and check its object, which must span at least two
 *  chunks when `chunked`: 0 pass, 1 fail, 77 skip. */
int
checkAotObject(unsigned regs, bool chunked, unsigned width,
               const std::string &cache)
{
    using namespace manticore;
    netlist::EvalOptions options;
    options.lanes = width;
    options.aotCacheDir = cache;
    netlist::AotEvaluator eval(mixingDesign(regs), options);
    const size_t chunks = netlist::aotChunkCount(eval.tapeLength());
    if (chunked && chunks < 2) {
        std::fprintf(stderr,
                     "check_vectorized --aot: the chunked design fits "
                     "one chunk (%zu statements)\n",
                     eval.tapeLength());
        return 1;
    }
    if (!eval.usingAot()) {
        std::fprintf(stderr,
                     "check_vectorized --aot: width %u object "
                     "failed to build/load\n",
                     width);
        return 1;
    }
    std::string tool;
    std::string disasm = disassemble(eval.objectPath(), tool);
    if (disasm.empty()) {
        std::fprintf(stderr,
                     "check_vectorized --aot: no working "
                     "objdump/llvm-objdump for %s — skipping\n",
                     eval.objectPath().c_str());
        return 77;
    }
    bool x86 = disasm.find("x86-64") != std::string::npos ||
               disasm.find("i386") != std::string::npos;
    bool arm = disasm.find("aarch64") != std::string::npos ||
               disasm.find("littleaarch64") != std::string::npos;
    if (!x86 && !arm) {
        std::fprintf(stderr,
                     "check_vectorized --aot: unrecognized object "
                     "format — skipping\n");
        return 77;
    }

    // A one-TU object needs vector lines somewhere in its cycle code;
    // a chunked one in every chunk TU's function.
    std::vector<size_t> per_chunk(std::max<size_t>(chunks, 1), 0);
    for (const auto &[symbol, hits] : cycleVectorLines(disasm, x86)) {
        long k = chunkIndex(symbol);
        if (chunks <= 1)
            per_chunk[0] += hits;
        else if (k >= 0 && static_cast<size_t>(k) < chunks)
            per_chunk[k] += hits;
    }
    size_t total = 0, scalar = 0;
    for (size_t hits : per_chunk) {
        total += hits;
        scalar += hits == 0;
    }
    std::printf("aot width %2u, %3zu statements, %zu TU(s): %5zu vector "
                "lines, %zu scalar %s (%s)\n",
                width, eval.tapeLength(), per_chunk.size(), total,
                scalar, scalar ? "SCALAR (FAIL)" : "vectorized",
                tool.c_str());
    return scalar ? 1 : 0;
}

/** --aot mode: build the laned AOT cycle objects of a one-TU and a
 *  chunked design at widths 4, 8 and 16 into a throwaway cache and
 *  require vector code in each — in every chunk function of the
 *  chunked one. */
int
checkAotObjects()
{
    using namespace manticore;
    const netlist::AotToolchain &tc = netlist::aotToolchain();
    if (!tc.ok) {
        std::fprintf(stderr,
                     "check_vectorized --aot: no working host "
                     "toolchain (%s) — skipping\n",
                     tc.message.c_str());
        return 77;
    }

    namespace fs = std::filesystem;
    std::error_code ec;
    std::string cache =
        (fs::temp_directory_path(ec) /
         ("check-vectorized-aot-" +
          std::to_string(static_cast<long>(getpid()))))
            .string();

    int rc = 0;
    bool skipped = false;
    // 8 registers build as one TU; 64 (~520 statements) span chunks.
    for (unsigned regs : {8u, 64u}) {
        for (unsigned width : {4u, 8u, 16u}) {
            int one = checkAotObject(regs, regs == 64, width, cache);
            skipped |= one == 77;
            if (one == 1)
                rc = 1;
        }
    }
    fs::remove_all(cache, ec);
    if (rc)
        std::fprintf(stderr,
                     "check_vectorized --aot: a laned AOT object (or "
                     "one of its chunk functions) emitted no vector "
                     "instructions — the laned codegen or the SIMD "
                     "flags regressed\n");
    else if (!skipped)
        std::printf("check_vectorized --aot: OK\n");
    return skipped && !rc ? 77 : rc;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::fprintf(stderr, "usage: check_vectorized "
                             "<libmanticore_simd.a> | --aot\n");
        return 1;
    }
    if (std::strcmp(argv[1], "--aot") == 0)
        return checkAotObjects();
    const std::string archive = argv[1];

    std::string disasm;
    std::string tool;
    for (const char *candidate : {"objdump", "llvm-objdump"}) {
        std::string cmd = std::string(candidate) + " -d '" + archive +
                          "' 2>/dev/null";
        disasm = capture(cmd);
        if (!disasm.empty()) {
            tool = candidate;
            break;
        }
    }
    if (disasm.empty()) {
        std::fprintf(stderr,
                     "check_vectorized: no working objdump/llvm-objdump "
                     "for %s — skipping\n",
                     archive.c_str());
        return 77;
    }

    bool x86 = disasm.find("x86-64") != std::string::npos ||
               disasm.find("i386") != std::string::npos;
    bool arm = disasm.find("aarch64") != std::string::npos ||
               disasm.find("littleaarch64") != std::string::npos;
    if (!x86 && !arm) {
        std::fprintf(stderr, "check_vectorized: unrecognized object "
                             "format (neither x86-64 nor aarch64) — "
                             "skipping\n");
        return 77;
    }

    // Walk the disassembly symbol by symbol, counting vector lines.
    std::map<unsigned, std::set<std::string>> vectorized; // width->kernels
    std::map<unsigned, std::set<std::string>> seen;
    unsigned cur_width = 0;
    std::string cur_kernel;
    size_t pos = 0;
    while (pos < disasm.size()) {
        size_t eol = disasm.find('\n', pos);
        if (eol == std::string::npos)
            eol = disasm.size();
        std::string line = disasm.substr(pos, eol - pos);
        pos = eol + 1;

        std::string kernel;
        if (unsigned w = lanedSymbolWidth(line, kernel)) {
            cur_width = w;
            cur_kernel = kernel;
            seen[w].insert(kernel);
            continue;
        }
        if (line.empty()) { // blank line ends the symbol body
            cur_width = 0;
            continue;
        }
        if (cur_width == 0)
            continue;
        bool vec = x86 ? isVectorLineX86(line) : isVectorLineAArch64(line);
        if (vec)
            vectorized[cur_width].insert(cur_kernel);
    }

    if (seen.empty()) {
        std::fprintf(stderr, "check_vectorized: no laned* symbols in "
                             "%s (wrong archive?)\n",
                     archive.c_str());
        return 1;
    }

    int rc = 0;
    for (auto &[width, kernels] : seen) {
        size_t hits = vectorized[width].size();
        // Width 2 is two 64-bit limbs: scalar pipes may legitimately
        // win, so it is advisory.  The wider instantiations must
        // vectorize somewhere or the SIMD flags regressed.
        bool required = width >= 4;
        const char *verdict =
            hits ? "vectorized" : (required ? "SCALAR (FAIL)" : "scalar (ok)");
        std::printf("width %2u: %2zu/%2zu kernels %s\n", width, hits,
                    kernels.size(), verdict);
        if (required && hits == 0)
            rc = 1;
    }
    if (rc)
        std::fprintf(stderr,
                     "check_vectorized: no vector instructions at a "
                     "required width (disassembled with %s) — the "
                     "laned kernels regressed to scalar code\n",
                     tool.c_str());
    else
        std::printf("check_vectorized: OK (%s, %s)\n", tool.c_str(),
                    x86 ? "x86-64" : "aarch64");
    return rc;
}
