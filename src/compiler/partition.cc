#include "compiler/partition.hh"

#include <algorithm>
#include <memory>
#include <unordered_map>

#include "support/logging.hh"

namespace manticore::compiler {

using isa::Opcode;
using isa::Reg;
using isa::kNoReg;

namespace {

/** Union-find over seed ids. */
class UnionFind
{
  public:
    explicit UnionFind(size_t n) : _parent(n)
    {
        for (size_t i = 0; i < n; ++i)
            _parent[i] = static_cast<int>(i);
    }

    int
    find(int x)
    {
        while (_parent[x] != x) {
            _parent[x] = _parent[_parent[x]];
            x = _parent[x];
        }
        return x;
    }

    bool
    unite(int a, int b)
    {
        a = find(a);
        b = find(b);
        if (a == b)
            return false;
        _parent[b] = a;
        return true;
    }

  private:
    std::vector<int> _parent;
};

/** The splitter: seeds, anchored-union fixpoint, cones. */
class Splitter
{
  public:
    explicit Splitter(const LoweredProgram &prog) : _prog(prog) {}

    struct Result
    {
        std::vector<std::vector<uint32_t>> cones;
        int privileged = -1;
    };

    Result
    run()
    {
        buildSeeds();
        buildDefMap();
        closeOverAnchors();
        return collect();
    }

  private:
    void
    buildSeeds()
    {
        size_t n = _prog.body.size();
        _anchor.assign(n, -1);

        // One seed per RTL register (all chunk MOVs together: the
        // paper splits per sink register).
        for (const auto &chunks : _prog.rtlRegs) {
            int seed = static_cast<int>(_seedMembers.size());
            _seedMembers.emplace_back();
            for (const auto &c : chunks) {
                _seedMembers.back().push_back(c.movIndex);
                _anchor[c.movIndex] = seed;
            }
        }

        // One seed per memory: every instruction tagged with it.
        std::unordered_map<int, int> mem_seed;
        for (size_t i = 0; i < n; ++i) {
            int m = _prog.memGroup[i];
            if (m < 0)
                continue;
            auto it = mem_seed.find(m);
            int seed;
            if (it == mem_seed.end()) {
                seed = static_cast<int>(_seedMembers.size());
                _seedMembers.emplace_back();
                mem_seed[m] = seed;
            } else {
                seed = it->second;
            }
            _seedMembers[seed].push_back(static_cast<uint32_t>(i));
            MANTICORE_ASSERT(_anchor[i] == -1, "doubly anchored instr");
            _anchor[i] = seed;
        }

        // One seed for all privileged instructions.  DRAM-resident
        // memory accesses are both memory-anchored and privileged; the
        // memory seed keeps the instruction and the two seeds are
        // united before the closure fixpoint.
        int priv_seed = -1;
        for (size_t i = 0; i < n; ++i) {
            if (!_prog.privileged[i])
                continue;
            if (priv_seed == -1) {
                priv_seed = static_cast<int>(_seedMembers.size());
                _seedMembers.emplace_back();
            }
            if (_anchor[i] != -1) {
                _pendingUnions.emplace_back(_anchor[i], priv_seed);
                continue;
            }
            _seedMembers[priv_seed].push_back(static_cast<uint32_t>(i));
            _anchor[i] = priv_seed;
        }
        _privSeed = priv_seed;
    }

    void
    buildDefMap()
    {
        for (size_t i = 0; i < _prog.body.size(); ++i) {
            Reg d = _prog.body[i].destination();
            if (d != kNoReg && _prog.body[i].opcode != Opcode::Mov)
                _def[d] = static_cast<uint32_t>(i);
        }
        // MOV destinations are the persistent current-value registers;
        // readers of those must NOT pull the MOV into their cone (the
        // value crosses the Vcycle boundary via SEND instead), so MOVs
        // are deliberately absent from the def map.
    }

    /** Backward closure of one root's members; records anchor unions.
     *  Returns true if any union was performed. */
    bool
    closeRoot(UnionFind &uf, int root, std::vector<uint32_t> *out)
    {
        bool changed = false;
        std::vector<char> visited(_prog.body.size(), 0);
        std::vector<uint32_t> stack;
        for (size_t s = 0; s < _seedMembers.size(); ++s) {
            if (uf.find(static_cast<int>(s)) != root)
                continue;
            for (uint32_t idx : _seedMembers[s]) {
                if (!visited[idx]) {
                    visited[idx] = 1;
                    stack.push_back(idx);
                }
            }
        }
        std::vector<uint32_t> cone;
        while (!stack.empty()) {
            uint32_t idx = stack.back();
            stack.pop_back();
            cone.push_back(idx);
            if (_anchor[idx] != -1 &&
                uf.find(_anchor[idx]) != root) {
                changed |= uf.unite(root, _anchor[idx]);
                // Its members join on the next fixpoint iteration.
            }
            for (Reg s : _prog.body[idx].sources()) {
                auto it = _def.find(s);
                if (it == _def.end())
                    continue; // init register (constant/current/base)
                uint32_t d = it->second;
                if (!visited[d]) {
                    visited[d] = 1;
                    stack.push_back(d);
                }
            }
        }
        if (out) {
            std::sort(cone.begin(), cone.end());
            *out = std::move(cone);
        }
        return changed;
    }

    void
    closeOverAnchors()
    {
        _uf = std::make_unique<UnionFind>(_seedMembers.size());
        for (auto [a, b] : _pendingUnions)
            _uf->unite(a, b);
        bool changed = true;
        while (changed) {
            changed = false;
            for (size_t s = 0; s < _seedMembers.size(); ++s) {
                int root = _uf->find(static_cast<int>(s));
                if (root != static_cast<int>(s))
                    continue;
                changed |= closeRoot(*_uf, root, nullptr);
            }
        }
    }

    Result
    collect()
    {
        Result res;
        std::unordered_map<int, int> root_to_proc;
        for (size_t s = 0; s < _seedMembers.size(); ++s) {
            int root = _uf->find(static_cast<int>(s));
            if (root != static_cast<int>(s))
                continue;
            std::vector<uint32_t> cone;
            closeRoot(*_uf, root, &cone);
            root_to_proc[root] = static_cast<int>(res.cones.size());
            res.cones.push_back(std::move(cone));
        }
        if (_privSeed != -1)
            res.privileged = root_to_proc.at(_uf->find(_privSeed));
        return res;
    }

    const LoweredProgram &_prog;
    std::vector<std::vector<uint32_t>> _seedMembers;
    std::vector<int> _anchor;
    std::vector<std::pair<int, int>> _pendingUnions;
    std::unordered_map<Reg, uint32_t> _def;
    std::unique_ptr<UnionFind> _uf;
    int _privSeed = -1;
};

} // namespace

Partition
partition(const LoweredProgram &program, unsigned num_cores,
          MergeAlgo algo)
{
    Splitter::Result split = Splitter(program).run();
    MANTICORE_ASSERT(!split.cones.empty(), "design has no sinks");

    // Items are instructions and values are the RTL registers' 16-bit
    // chunks, numbered in rtlRegs order, all of weight 1 (NOPs do not
    // exist before scheduling).  A chunk is committed by the process
    // holding its MOV and read by those reading its current-value
    // register.
    std::unordered_map<Reg, uint32_t> chunk_of_current;
    std::unordered_map<uint32_t, uint32_t> chunk_of_mov;
    uint32_t num_chunks = 0;
    for (const auto &chunks : program.rtlRegs) {
        for (const RegChunkInfo &c : chunks) {
            chunk_of_current[c.current] = num_chunks;
            chunk_of_mov[c.movIndex] = num_chunks;
            ++num_chunks;
        }
    }
    merge::Problem problem;
    problem.itemWeight.assign(program.body.size(), 1);
    problem.valueWidth.assign(num_chunks, 1);
    for (std::vector<uint32_t> &cone : split.cones) {
        merge::Process proc;
        for (uint32_t idx : cone) {
            auto mv = chunk_of_mov.find(idx);
            if (mv != chunk_of_mov.end() &&
                program.body[idx].opcode == Opcode::Mov)
                proc.commits.push_back(mv->second);
            for (Reg s : program.body[idx].sources()) {
                auto it = chunk_of_current.find(s);
                if (it != chunk_of_current.end())
                    proc.reads.push_back(it->second);
            }
        }
        std::sort(proc.reads.begin(), proc.reads.end());
        proc.reads.erase(std::unique(proc.reads.begin(), proc.reads.end()),
                         proc.reads.end());
        proc.items = std::move(cone);
        problem.processes.push_back(std::move(proc));
    }

    // No sync cost: a Vcycle's length is the straggler's schedule.
    merge::Result merged =
        merge::mergeProcesses(problem, num_cores, algo, 0);
    Partition part;
    part.processes = std::move(merged.items);
    if (split.privileged != -1)
        part.privileged = merged.groupOf[split.privileged];
    part.stats = merged.stats;
    return part;
}

} // namespace manticore::compiler
