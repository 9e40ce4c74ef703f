#include "netlist/partition.hh"

#include <algorithm>
#include <numeric>
#include <unordered_set>

#include "support/limbops.hh"

namespace manticore::netlist {

namespace lo = ::manticore::limbops;

namespace {

constexpr size_t kNone = ~size_t{0};

bool
isSource(OpKind kind)
{
    return kind == OpKind::Const || kind == OpKind::Input ||
           kind == OpKind::RegRead;
}

/** One pre-merge process: a sink's backward combinational cone as the
 *  merger sees it (items: its nodes; commits: the registers it owns;
 *  reads: the registers whose current value feeds it), plus the
 *  memory writes and side effects it owns. */
struct Seed
{
    merge::Process cone;
    std::vector<uint32_t> memWrites;
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
        seed.cone.items.push_back(id);
        for (NodeId operand : nl.node(id).operands)
            push(operand);
    }
    std::sort(seed.cone.items.begin(), seed.cone.items.end());
    seed.cone.reads.assign(reads.begin(), reads.end());
    std::sort(seed.cone.reads.begin(), seed.cone.reads.end());
    return seed;
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
        for (NodeId id : seeds[s].cone.items) {
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
            continue;
        }
        Seed &into = out[at[r]];
        merge::absorb(into.cone, seeds[s].cone);
        into.memWrites =
            merge::sortedUnion(into.memWrites, seeds[s].memWrites);
        into.effects |= seeds[s].effects;
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
        s.cone.commits.push_back(static_cast<RegId>(r));
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

} // namespace

NetlistPartition
partitionNetlist(const Netlist &netlist, unsigned num_processes,
                 MergeAlgo algo, size_t sync_cost)
{
    // Items are nodes and values are registers, both weighted by limb
    // count: a 200-bit multiply weighs more than a 1-bit AND (the
    // netlist analogue of the compiler's per-16-bit-chunk costs).
    std::vector<Seed> seeds = split(netlist);
    merge::Problem problem;
    for (const Node &n : netlist.nodes())
        problem.itemWeight.push_back(lo::nlimbs(n.width));
    for (const Register &r : netlist.registers())
        problem.valueWidth.push_back(lo::nlimbs(r.width));
    for (Seed &s : seeds)
        problem.processes.push_back(std::move(s.cone));
    merge::Result merged =
        merge::mergeProcesses(problem, num_processes, algo, sync_cost);

    NetlistPartition part;
    part.processes.resize(merged.items.size());
    for (size_t s = 0; s < seeds.size(); ++s) {
        NetlistProcess &proc = part.processes[merged.groupOf[s]];
        const std::vector<uint32_t> &regs = problem.processes[s].commits;
        proc.registers.insert(proc.registers.end(), regs.begin(),
                              regs.end());
        proc.memWrites.insert(proc.memWrites.end(),
                              seeds[s].memWrites.begin(),
                              seeds[s].memWrites.end());
        proc.effects |= seeds[s].effects;
    }
    size_t instances = 0;
    for (size_t p = 0; p < part.processes.size(); ++p) {
        NetlistProcess &proc = part.processes[p];
        proc.nodes = std::move(merged.items[p]);
        std::sort(proc.registers.begin(), proc.registers.end());
        std::sort(proc.memWrites.begin(), proc.memWrites.end());
        instances += proc.nodes.size();
    }
    static_cast<merge::Stats &>(part.stats) = merged.stats;
    size_t live = 0;
    for (const Node &n : netlist.nodes())
        if (!isSource(n.kind))
            ++live;
    part.stats.duplicatedNodes = instances > live ? instances - live : 0;
    return part;
}

} // namespace manticore::netlist
