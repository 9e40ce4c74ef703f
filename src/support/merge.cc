#include "support/merge.hh"

#include <algorithm>
#include <iterator>
#include <unordered_set>

#include "support/logging.hh"

namespace manticore::merge {

std::vector<uint32_t>
sortedUnion(const std::vector<uint32_t> &a, const std::vector<uint32_t> &b)
{
    std::vector<uint32_t> out;
    out.reserve(a.size() + b.size());
    std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                   std::back_inserter(out));
    return out;
}

void
absorb(Process &into, const Process &from)
{
    into.items = sortedUnion(into.items, from.items);
    into.commits.insert(into.commits.end(), from.commits.begin(),
                        from.commits.end());
    into.reads = sortedUnion(into.reads, from.reads);
}

namespace {

/** Merging machinery shared by both algorithms. */
class Merger
{
  public:
    explicit Merger(const Problem &problem)
        : _itemWeight(problem.itemWeight),
          _valueWidth(problem.valueWidth), _procs(problem.processes)
    {
        _alive.assign(_procs.size(), true);
        _aliveCount = _procs.size();
        for (size_t p = 0; p < _procs.size(); ++p) {
            _weight.push_back(weight(_procs[p].items));
            _members.push_back({static_cast<int>(p)});
        }
        buildCommunication();
    }

    /** Cost model: weighted items + sends (§6.1). */
    size_t cost(int p) const { return _weight[p] + sends(p); }

    size_t
    sends(int p) const
    {
        size_t n = 0;
        for (uint32_t v : _procs[p].commits)
            n += size_t{_valueWidth[v]} * foreignReaders(v, p, p);
        return n;
    }

    size_t
    mergedCost(int a, int b) const
    {
        // Weighted union of the item sets (shared items deduplicate).
        size_t w = 0;
        const auto &ia = _procs[a].items, &ib = _procs[b].items;
        size_t i = 0, j = 0;
        while (i < ia.size() && j < ib.size()) {
            uint32_t id;
            if (ia[i] == ib[j]) {
                id = ia[i];
                ++i;
                ++j;
            } else if (ia[i] < ib[j]) {
                id = ia[i++];
            } else {
                id = ib[j++];
            }
            w += _itemWeight[id];
        }
        for (; i < ia.size(); ++i)
            w += _itemWeight[ia[i]];
        for (; j < ib.size(); ++j)
            w += _itemWeight[ib[j]];

        for (int p : {a, b})
            for (uint32_t v : _procs[p].commits)
                w += size_t{_valueWidth[v]} * foreignReaders(v, a, b);
        return w;
    }

    void
    merge(int a, int b)
    {
        MANTICORE_ASSERT(a != b && _alive[a] && _alive[b], "bad merge");
        Process &pa = _procs[a];
        Process &pb = _procs[b];
        absorb(pa, pb);
        _weight[a] = weight(pa.items);
        // Re-point b's readership at a.
        for (uint32_t v : pb.reads) {
            auto &rd = _readers[v];
            rd.erase(std::remove(rd.begin(), rd.end(), b), rd.end());
            if (std::find(rd.begin(), rd.end(), a) == rd.end())
                rd.push_back(a);
        }
        pb = Process{};
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
        _members[a].insert(_members[a].end(), _members[b].begin(),
                           _members[b].end());
        _members[b].clear();
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

    Result
    finish()
    {
        Result res;
        res.stats.splitProcesses = _procs.size();
        res.stats.splitEdges = _splitEdges;
        res.groupOf.resize(_procs.size());
        for (size_t p = 0; p < _procs.size(); ++p) {
            if (!_alive[p])
                continue;
            size_t s = sends(static_cast<int>(p));
            size_t c = _weight[p] + s;
            res.stats.estimatedMaxCost =
                std::max(res.stats.estimatedMaxCost, c);
            res.stats.totalCost += c;
            res.stats.estimatedSends += s;
            for (int m : _members[p])
                res.groupOf[m] = static_cast<int>(res.items.size());
            res.items.push_back(std::move(_procs[p].items));
        }
        res.stats.mergedProcesses = res.items.size();
        return res;
    }

  private:
    size_t
    weight(const std::vector<uint32_t> &items) const
    {
        size_t w = 0;
        for (uint32_t id : items)
            w += _itemWeight[id];
        return w;
    }

    /** Readers of value v outside the (a, b) pair being costed. */
    size_t
    foreignReaders(uint32_t v, int a, int b) const
    {
        size_t n = 0;
        for (int p : _readers[v])
            if (p != a && p != b)
                ++n;
        return n;
    }

    void
    buildCommunication()
    {
        _readers.assign(_valueWidth.size(), {});
        _neighbors.assign(_procs.size(), {});
        std::vector<int> owner(_valueWidth.size(), -1);
        for (size_t p = 0; p < _procs.size(); ++p) {
            for (uint32_t v : _procs[p].commits)
                owner[v] = static_cast<int>(p);
            for (uint32_t v : _procs[p].reads)
                _readers[v].push_back(static_cast<int>(p));
        }
        for (size_t v = 0; v < _readers.size(); ++v) {
            MANTICORE_ASSERT(owner[v] != -1, "value without committer");
            for (int rd : _readers[v]) {
                if (rd != owner[v]) {
                    _neighbors[owner[v]].insert(rd);
                    _neighbors[rd].insert(owner[v]);
                    ++_splitEdges;
                }
            }
        }
    }

    const std::vector<unsigned> &_itemWeight;
    const std::vector<unsigned> &_valueWidth;
    std::vector<Process> _procs;
    std::vector<size_t> _weight;
    /// Per process: the split processes merged into it.
    std::vector<std::vector<int>> _members;
    std::vector<bool> _alive;
    size_t _aliveCount = 0;
    /// Per value: processes reading its current value.
    std::vector<std::vector<int>> _readers;
    std::vector<std::unordered_set<int>> _neighbors;
    size_t _splitEdges = 0;
};

/** One step of the Balanced merge sequence: the cheapest process p
 *  and the partner q minimising the merged cost — neighbours
 *  preferred (shared values stop being sends), plus the smallest
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
 *  least-loaded bin (a bin is represented by the first process merged
 *  into it). */
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

Result
mergeProcesses(const Problem &problem, unsigned max_processes,
               MergeAlgo algo, size_t sync_cost)
{
    MANTICORE_ASSERT(max_processes >= 1, "need at least one process");
    Merger merger(problem);
    if (algo == MergeAlgo::Balanced)
        mergeBalanced(merger, max_processes, sync_cost);
    else
        mergeLpt(merger, max_processes);
    Result res = merger.finish();
    MANTICORE_ASSERT(res.items.size() <= max_processes,
                     "merge produced too many processes");
    return res;
}

} // namespace manticore::merge
