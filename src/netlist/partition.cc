#include "netlist/partition.hh"

#include <algorithm>
#include <numeric>
#include <unordered_set>

#include "support/limbops.hh"
#include "support/logging.hh"

namespace manticore::netlist {

namespace lo = ::manticore::limbops;

namespace {

constexpr size_t kNone = ~size_t{0};

/** Per-node evaluation-cost proxy: the limb count, so a 200-bit
 *  multiply weighs more than a 1-bit AND (the netlist analogue of the
 *  compiler's instruction count, which is also per-16-bit-chunk). */
unsigned
nodeWeight(const Netlist &nl, NodeId id)
{
    return lo::nlimbs(nl.node(id).width);
}

bool
isSource(OpKind kind)
{
    return kind == OpKind::Const || kind == OpKind::Input ||
           kind == OpKind::RegRead;
}

/** One pre-merge process: a sink's backward combinational cone. */
struct Seed
{
    std::vector<NodeId> nodes;    ///< sorted, combinational only
    std::vector<RegId> registers; ///< owned commits
    std::vector<uint32_t> memWrites;
    std::vector<RegId> reads;     ///< registers whose current feeds it
    bool effects = false;
};

/** Backward closure from `sinks` over combinational nodes.  Sink
 *  nodes that are themselves sources contribute a read (RegRead) but
 *  no cone node.  Node duplication across seeds is free, so each
 *  closure is independent (no anchored-union fixpoint needed — the
 *  anchoring constraints are folded into seed construction). */
Seed
makeCone(const Netlist &nl, const std::vector<NodeId> &sinks)
{
    Seed seed;
    std::unordered_set<NodeId> visited;
    std::unordered_set<RegId> reads;
    std::vector<NodeId> stack;
    auto push = [&](NodeId id) {
        const Node &n = nl.node(id);
        if (n.kind == OpKind::RegRead) {
            reads.insert(n.regId);
            return;
        }
        if (isSource(n.kind))
            return;
        if (visited.insert(id).second)
            stack.push_back(id);
    };
    for (NodeId s : sinks)
        push(s);
    while (!stack.empty()) {
        NodeId id = stack.back();
        stack.pop_back();
        seed.nodes.push_back(id);
        for (NodeId operand : nl.node(id).operands)
            push(operand);
    }
    std::sort(seed.nodes.begin(), seed.nodes.end());
    seed.reads.assign(reads.begin(), reads.end());
    std::sort(seed.reads.begin(), seed.reads.end());
    return seed;
}

std::vector<uint32_t>
sortedUnion(const std::vector<uint32_t> &a, const std::vector<uint32_t> &b)
{
    std::vector<uint32_t> out;
    out.reserve(a.size() + b.size());
    std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                   std::back_inserter(out));
    return out;
}

/** Merge `from` into `into`: the union of two cones and everything
 *  they own. */
void
absorb(Seed &into, const Seed &from)
{
    into.nodes = sortedUnion(into.nodes, from.nodes);
    into.registers.insert(into.registers.end(), from.registers.begin(),
                          from.registers.end());
    into.memWrites = sortedUnion(into.memWrites, from.memWrites);
    into.reads = sortedUnion(into.reads, from.reads);
    into.effects |= from.effects;
}

/** Fold every seed whose cone reads a written memory into the seed
 *  writing it (transitively): the writer applies cycle k's writes
 *  after the Vcycle barrier, while the other processes already
 *  compute cycle k+1, so no other process may read the memory.
 *  writer[m] is memory m's write seed, or kNone for a read-only
 *  memory, whose reads stay free to duplicate.  Seeds keep their
 *  order, so a netlist without written memories splits unchanged. */
std::vector<Seed>
anchorMemoryReads(const Netlist &nl, std::vector<Seed> seeds,
                  const std::vector<size_t> &writer)
{
    std::vector<size_t> root(seeds.size());
    std::iota(root.begin(), root.end(), size_t{0});
    auto find = [&](size_t s) {
        while (root[s] != s)
            s = root[s] = root[root[s]];
        return s;
    };
    for (size_t s = 0; s < seeds.size(); ++s) {
        for (NodeId id : seeds[s].nodes) {
            const Node &n = nl.node(id);
            if (n.kind != OpKind::MemRead || writer[n.memId] == kNone)
                continue;
            size_t a = find(s), b = find(writer[n.memId]);
            root[std::max(a, b)] = std::min(a, b);
        }
    }

    // Roots are the smallest index of their group, so each group
    // lands where its first seed was.
    std::vector<Seed> out;
    std::vector<size_t> at(seeds.size(), kNone);
    for (size_t s = 0; s < seeds.size(); ++s) {
        size_t r = find(s);
        if (at[r] == kNone) {
            at[r] = out.size();
            out.push_back(std::move(seeds[s]));
        } else {
            absorb(out[at[r]], seeds[s]);
        }
    }
    return out;
}

std::vector<Seed>
split(const Netlist &nl)
{
    std::vector<Seed> seeds;

    // One seed per register: the cone of its next-value.
    for (size_t r = 0; r < nl.numRegisters(); ++r) {
        Seed s = makeCone(nl, {nl.reg(static_cast<RegId>(r)).next});
        s.registers.push_back(static_cast<RegId>(r));
        seeds.push_back(std::move(s));
    }

    // One seed per written memory: all its writes stay together so
    // same-address commits apply in the netlist's program order.
    std::vector<std::vector<uint32_t>> writes_of(nl.numMemories());
    for (size_t w = 0; w < nl.memWrites().size(); ++w)
        writes_of[nl.memWrites()[w].mem].push_back(
            static_cast<uint32_t>(w));
    std::vector<size_t> writer(nl.numMemories(), kNone);
    for (size_t m = 0; m < nl.numMemories(); ++m) {
        if (writes_of[m].empty())
            continue;
        std::vector<NodeId> sinks;
        for (uint32_t w : writes_of[m]) {
            const MemWrite &mw = nl.memWrites()[w];
            sinks.push_back(mw.addr);
            sinks.push_back(mw.data);
            sinks.push_back(mw.enable);
        }
        Seed s = makeCone(nl, sinks);
        s.memWrites = writes_of[m];
        writer[m] = seeds.size();
        seeds.push_back(std::move(s));
    }

    // One seed for every side effect (the paper's single privileged
    // process): the master fires them in deterministic netlist order,
    // reading this process's slots.
    std::vector<NodeId> effect_sinks;
    for (const Assert &a : nl.asserts()) {
        effect_sinks.push_back(a.enable);
        effect_sinks.push_back(a.cond);
    }
    for (const Display &d : nl.displays()) {
        effect_sinks.push_back(d.enable);
        for (NodeId arg : d.args)
            effect_sinks.push_back(arg);
    }
    for (const Finish &f : nl.finishes())
        effect_sinks.push_back(f.enable);
    if (!effect_sinks.empty()) {
        Seed s = makeCone(nl, effect_sinks);
        s.effects = true;
        seeds.push_back(std::move(s));
    }
    return anchorMemoryReads(nl, std::move(seeds), writer);
}

/** Merging machinery shared by both algorithms — the compiler
 *  Merger's structure with registers in place of 16-bit chunks and
 *  limb-weighted costs. */
class Merger
{
  public:
    Merger(const Netlist &nl, std::vector<Seed> seeds)
        : _nl(nl), _procs(std::move(seeds))
    {
        _alive.assign(_procs.size(), true);
        _aliveCount = _procs.size();
        _weight.resize(_procs.size());
        for (size_t p = 0; p < _procs.size(); ++p) {
            size_t w = 0;
            for (NodeId id : _procs[p].nodes)
                w += nodeWeight(_nl, id);
            _weight[p] = w;
        }
        buildCommunication();
    }

    size_t splitEdges() const { return _splitEdges; }

    /** Cost model: weighted nodes + sends (§6.1). */
    size_t cost(int p) const { return _weight[p] + sends(p); }

    size_t
    sends(int p) const
    {
        size_t n = 0;
        for (RegId r : _procs[p].registers)
            n += static_cast<size_t>(regLimbs(r)) * foreignReaders(r, p, p);
        return n;
    }

    size_t
    mergedCost(int a, int b) const
    {
        // Weighted union of the node sets (shared nodes deduplicate).
        size_t w = 0;
        const auto &na = _procs[a].nodes, &nb = _procs[b].nodes;
        size_t i = 0, j = 0;
        while (i < na.size() && j < nb.size()) {
            NodeId id;
            if (na[i] == nb[j]) {
                id = na[i];
                ++i;
                ++j;
            } else if (na[i] < nb[j]) {
                id = na[i++];
            } else {
                id = nb[j++];
            }
            w += nodeWeight(_nl, id);
        }
        for (; i < na.size(); ++i)
            w += nodeWeight(_nl, na[i]);
        for (; j < nb.size(); ++j)
            w += nodeWeight(_nl, nb[j]);

        for (int p : {a, b})
            for (RegId r : _procs[p].registers)
                w += static_cast<size_t>(regLimbs(r)) *
                     foreignReaders(r, a, b);
        return w;
    }

    void
    merge(int a, int b)
    {
        MANTICORE_ASSERT(a != b && _alive[a] && _alive[b], "bad merge");
        Seed &pa = _procs[a];
        Seed &pb = _procs[b];
        absorb(pa, pb);
        size_t w = 0;
        for (NodeId id : pa.nodes)
            w += nodeWeight(_nl, id);
        _weight[a] = w;
        // Re-point b's readership at a.
        for (RegId r : pb.reads) {
            auto &rd = _readers[r];
            rd.erase(std::remove(rd.begin(), rd.end(), b), rd.end());
            if (std::find(rd.begin(), rd.end(), a) == rd.end())
                rd.push_back(a);
        }
        pb = Seed{};
        for (int n : _neighbors[b]) {
            auto &nn = _neighbors[n];
            nn.erase(b);
            if (n != a) {
                nn.insert(a);
                _neighbors[a].insert(n);
            }
        }
        _neighbors[a].erase(a);
        _neighbors[b].clear();
        _alive[b] = false;
        --_aliveCount;
    }

    size_t aliveCount() const { return _aliveCount; }
    /** The straggler's cost. */
    size_t
    maxCost() const
    {
        size_t c = 0;
        for (size_t p = 0; p < _procs.size(); ++p)
            if (_alive[p])
                c = std::max(c, cost(static_cast<int>(p)));
        return c;
    }
    bool alive(int p) const { return _alive[p]; }
    size_t numProcs() const { return _procs.size(); }
    const std::unordered_set<int> &neighbors(int p) const
    {
        return _neighbors[p];
    }

    NetlistPartition
    finish(size_t split_count, size_t split_edges)
    {
        NetlistPartition part;
        part.stats.splitProcesses = split_count;
        part.stats.splitEdges = split_edges;
        size_t netlist_instances = 0;
        for (size_t p = 0; p < _procs.size(); ++p) {
            if (!_alive[p])
                continue;
            size_t c = cost(static_cast<int>(p));
            part.stats.estimatedMaxCost =
                std::max(part.stats.estimatedMaxCost, c);
            part.stats.totalCost += c;
            part.stats.estimatedSends += sends(static_cast<int>(p));
            netlist_instances += _procs[p].nodes.size();
            NetlistProcess proc;
            proc.nodes = std::move(_procs[p].nodes);
            proc.registers = std::move(_procs[p].registers);
            std::sort(proc.registers.begin(), proc.registers.end());
            proc.memWrites = std::move(_procs[p].memWrites);
            proc.effects = _procs[p].effects;
            part.processes.push_back(std::move(proc));
        }
        part.stats.mergedProcesses = part.processes.size();
        size_t live = 0;
        for (const Node &n : _nl.nodes())
            if (!isSource(n.kind))
                ++live;
        part.stats.duplicatedNodes =
            netlist_instances > live ? netlist_instances - live : 0;
        return part;
    }

  private:
    unsigned regLimbs(RegId r) const
    {
        return lo::nlimbs(_nl.reg(r).width);
    }

    /** Readers of register r outside the (a, b) pair being costed. */
    size_t
    foreignReaders(RegId r, int a, int b) const
    {
        size_t n = 0;
        for (int p : _readers[r])
            if (p != a && p != b)
                ++n;
        return n;
    }

    void
    buildCommunication()
    {
        _readers.assign(_nl.numRegisters(), {});
        _neighbors.assign(_procs.size(), {});
        std::vector<int> owner(_nl.numRegisters(), -1);
        for (size_t p = 0; p < _procs.size(); ++p) {
            for (RegId r : _procs[p].registers)
                owner[r] = static_cast<int>(p);
            for (RegId r : _procs[p].reads)
                _readers[r].push_back(static_cast<int>(p));
        }
        for (size_t r = 0; r < _nl.numRegisters(); ++r) {
            for (int rd : _readers[r]) {
                if (rd != owner[r]) {
                    _neighbors[owner[r]].insert(rd);
                    _neighbors[rd].insert(owner[r]);
                    ++_splitEdges;
                }
            }
        }
    }

    const Netlist &_nl;
    std::vector<Seed> _procs;
    std::vector<size_t> _weight;
    std::vector<bool> _alive;
    size_t _aliveCount = 0;
    /// Per register: processes reading its current value.
    std::vector<std::vector<int>> _readers;
    std::vector<std::unordered_set<int>> _neighbors;
    size_t _splitEdges = 0;
};

/** One step of the Balanced merge sequence: the cheapest process p
 *  and the partner q minimising the merged cost — neighbours
 *  preferred (shared registers stop being sends), plus the smallest
 *  outsider so hub-and-spoke designs don't accrete onto the hub.
 *  q is -1 when p has no partner left. */
struct MergeStep
{
    int p = -1;
    int q = -1;
    size_t merged = 0;  ///< cost of p and q merged
    size_t maxCost = 0; ///< the straggler's cost before the merge
};

MergeStep
nextMerge(const Merger &m)
{
    MergeStep s;
    size_t best_cost = 0;
    for (size_t p = 0; p < m.numProcs(); ++p) {
        if (!m.alive(static_cast<int>(p)))
            continue;
        size_t c = m.cost(static_cast<int>(p));
        s.maxCost = std::max(s.maxCost, c);
        if (s.p == -1 || c < best_cost) {
            s.p = static_cast<int>(p);
            best_cost = c;
        }
    }

    auto consider = [&](int q) {
        if (q == s.p || !m.alive(q))
            return;
        size_t c = m.mergedCost(s.p, q);
        if (s.q == -1 || c < s.merged) {
            s.q = q;
            s.merged = c;
        }
    };
    for (int q : m.neighbors(s.p))
        consider(q);
    int smallest_other = -1;
    size_t smallest_cost = 0;
    for (size_t q = 0; q < m.numProcs(); ++q) {
        int qi = static_cast<int>(q);
        if (qi == s.p || !m.alive(qi) || m.neighbors(s.p).count(qi))
            continue;
        size_t c = m.cost(qi);
        if (smallest_other == -1 || c < smallest_cost) {
            smallest_other = qi;
            smallest_cost = c;
        }
    }
    if (smallest_other != -1)
        consider(smallest_other);
    return s;
}

/** Predicted Vcycle cost of the merger's current state: the
 *  straggler, plus the sync that only more than one process pays. */
size_t
vcycleCost(const Merger &m, size_t sync_cost)
{
    return m.maxCost() + (m.aliveCount() > 1 ? sync_cost : 0);
}

/** Communication-aware balanced merging (B): follow the merge
 *  sequence down to the process budget, then keep merging only while
 *  it cannot create a new straggler (§6.1).  That stop ignores the
 *  Vcycle's fixed sync, so from it the sequence continues down to one
 *  process and the state with the lowest vcycleCost() wins; the stop
 *  wins ties.  States before the stop cannot win — the ones within
 *  the budget never raise the straggler and pay the same sync — so
 *  the candidates are the stop plus at most num_processes - 1 more
 *  merges. */
void
mergeBalanced(Merger &m, unsigned num_processes, size_t sync_cost)
{
    while (m.aliveCount() > 1) {
        MergeStep s = nextMerge(m);
        if (s.q == -1 ||
            (m.aliveCount() <= num_processes && s.merged > s.maxCost))
            break;
        m.merge(s.p, s.q);
    }

    // Walk the rest of the sequence on a copy, then replay the
    // winning prefix: the sequence is deterministic.
    Merger trial = m;
    size_t best = vcycleCost(m, sync_cost);
    size_t best_steps = 0;
    for (size_t steps = 1; trial.aliveCount() > 1; ++steps) {
        MergeStep s = nextMerge(trial);
        if (s.q == -1)
            break;
        trial.merge(s.p, s.q);
        size_t c = vcycleCost(trial, sync_cost);
        if (c < best) {
            best = c;
            best_steps = steps;
        }
    }
    for (size_t i = 0; i < best_steps; ++i) {
        MergeStep s = nextMerge(m);
        m.merge(s.p, s.q);
    }
}

/** Longest-processing-time-first bin packing (L), oblivious to
 *  communication: place the largest un-binned process into the
 *  least-loaded bin. */
void
mergeLpt(Merger &m, unsigned num_processes)
{
    std::vector<int> order;
    for (size_t p = 0; p < m.numProcs(); ++p)
        if (m.alive(static_cast<int>(p)))
            order.push_back(static_cast<int>(p));
    std::sort(order.begin(), order.end(), [&](int a, int b) {
        return m.cost(a) > m.cost(b);
    });

    size_t bins = std::min<size_t>(num_processes, order.size());
    std::vector<int> bin_repr;
    std::vector<size_t> bin_load;
    for (int p : order) {
        if (bin_repr.size() < bins) {
            bin_repr.push_back(p);
            bin_load.push_back(m.cost(p));
            continue;
        }
        size_t best = 0;
        for (size_t b = 1; b < bin_repr.size(); ++b)
            if (bin_load[b] < bin_load[best])
                best = b;
        // LPT uses the linear cost estimate when packing.
        bin_load[best] += m.cost(p);
        m.merge(bin_repr[best], p);
    }
}

} // namespace

NetlistPartition
partitionNetlist(const Netlist &netlist, unsigned num_processes,
                 MergeAlgo algo, size_t sync_cost)
{
    MANTICORE_ASSERT(num_processes >= 1, "need at least one process");
    std::vector<Seed> seeds = split(netlist);
    if (seeds.empty())
        return {};

    Merger merger(netlist, std::move(seeds));
    size_t split_count = merger.numProcs();
    size_t split_edges = merger.splitEdges();
    if (algo == MergeAlgo::Balanced)
        mergeBalanced(merger, num_processes, sync_cost);
    else
        mergeLpt(merger, num_processes);

    NetlistPartition part = merger.finish(split_count, split_edges);
    MANTICORE_ASSERT(part.processes.size() <= num_processes,
                     "merge produced too many processes");
    return part;
}

} // namespace manticore::netlist
