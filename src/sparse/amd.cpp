// Approximate minimum degree ordering (Amestoy, Davis & Duff, "An
// approximate minimum degree ordering algorithm", SIAM J. Matrix Anal. Appl.
// 17(4), 1996) of the pattern of A + A^T.
//
// The elimination is simulated on the quotient graph: every node is either a
// (super)variable, whose list holds the elements it touches followed by the
// variables it is still directly adjacent to, or an element -- an eliminated
// pivot, whose list Le holds the variables of its clique. One pass per pivot:
//   1. take a variable of least approximate degree;
//   2. form its element Lk, absorbing the elements it touched;
//   3. compute |Le \ Lk| for every element adjacent to Lk;
//   4. bound each Lk variable's external degree from those counts, absorbing
//      elements with Le inside Lk (aggressive absorption) and eliminating
//      variables left with no outside neighbour together with the pivot
//      (mass elimination);
//   5. merge Lk variables with identical lists into supervariables (hashed
//      on their list contents);
//   6. re-insert the survivors into the degree lists.
// Rows denser than 10 sqrt(n) are set aside up front and ordered last. The
// final order is a postorder of the assembly tree, so every supervariable is
// contiguous. Degree lists are LIFO and every scan runs in index order, so
// the order depends on the pattern alone.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "sparse/splu.hpp"
#include "util/check.hpp"

namespace atmor::sparse {

namespace {

/// Links of absorbed nodes are stored encoded in pe[]: flip(flip(i)) == i,
/// flip(i) <= -2 for every node, and flip(-1) == -1 keeps a root a root.
constexpr int flip(int i) { return -i - 2; }

std::vector<int> amd_pattern_order(int n, const std::vector<int>& col_ptr,
                                   const std::vector<int>& row_idx) {
    // Node n is a virtual root collecting the dense rows.
    const std::size_t n1 = static_cast<std::size_t>(n) + 1;
    std::vector<int> pe_v(n1), len_v(n1, 0), nv_v(n1), elen_v(n1), degree_v(n1);
    std::vector<int> head_v(n1, -1), next_v(n1, -1), last_v(n1, -1), hhead_v(n1, -1);
    // w[] holds element marks: 0 = absorbed, 1 = untouched, >= mark = touched
    // this step. 64-bit, so the mark only ever grows and never needs a reset.
    std::vector<std::int64_t> w_v(n1, 1);
    int* const pe = pe_v.data();
    int* const len = len_v.data();
    int* const nv = nv_v.data();
    int* const elen = elen_v.data();
    int* const degree = degree_v.data();
    int* const head = head_v.data();
    int* const next = next_v.data();
    int* const last = last_v.data();
    int* const hhead = hhead_v.data();
    std::int64_t* const w = w_v.data();

    // --- Adjacency of A + A^T without the diagonal, deduplicated in place,
    // with elbow room after the last list for the elements formed later.
    for (int j = 0; j < n; ++j)
        for (int p = col_ptr[static_cast<std::size_t>(j)];
             p < col_ptr[static_cast<std::size_t>(j) + 1]; ++p) {
            const int i = row_idx[static_cast<std::size_t>(p)];
            if (i == j) continue;
            ++len[i];
            ++len[j];
        }
    int total = 0;
    for (int i = 0; i < n; ++i) {
        pe[i] = total;
        total += len[i];
    }
    std::vector<int> iw_v(static_cast<std::size_t>(total) + static_cast<std::size_t>(total / 5) +
                          2 * static_cast<std::size_t>(n) + 1);
    int* const iw = iw_v.data();
    for (int i = 0; i < n; ++i) last[i] = pe[i];  // fill cursors
    for (int j = 0; j < n; ++j)
        for (int p = col_ptr[static_cast<std::size_t>(j)];
             p < col_ptr[static_cast<std::size_t>(j) + 1]; ++p) {
            const int i = row_idx[static_cast<std::size_t>(p)];
            if (i == j) continue;
            iw[last[i]++] = j;
            iw[last[j]++] = i;
        }
    int cnz = 0;
    for (int i = 0; i < n; ++i) {
        const int start = pe[i];
        pe[i] = cnz;
        for (int p = start; p < start + len[i]; ++p) {
            const int j = iw[p];
            if (last[j] == flip(i)) continue;  // duplicate within this list
            last[j] = flip(i);
            iw[cnz++] = j;
        }
        len[i] = cnz - pe[i];
    }
    // Elbow room is sized on the deduplicated graph, so when compaction runs
    // depends on the pattern alone, not on how often A stores each pair.
    const int capacity = cnz + cnz / 5 + 2 * n + 1;

    // --- Initial state: every node a variable of weight 1 in the degree
    // list of its adjacency size; isolated nodes are eliminated at once,
    // dense ones parked under the virtual root.
    const int dense = std::min(
        n - 2, std::max(16, static_cast<int>(10.0 * std::sqrt(static_cast<double>(n)))));
    std::int64_t mark = 2;
    int nel = 0;
    pe[n] = -1;
    nv[n] = 0;
    elen[n] = -2;
    w[n] = 0;
    for (int i = 0; i < n; ++i) {
        last[i] = -1;
        nv[i] = 1;
        elen[i] = 0;
        degree[i] = len[i];
        if (degree[i] == 0) {
            elen[i] = -2;
            pe[i] = -1;
            w[i] = 0;
            ++nel;
        } else if (degree[i] > dense) {
            nv[i] = 0;
            elen[i] = -1;
            pe[i] = flip(n);
            ++nv[n];
            ++nel;
        } else {
            const int d = degree[i];
            if (head[d] != -1) last[head[d]] = i;
            next[i] = head[d];
            head[d] = i;
        }
    }

    int mindeg = 0;
    int lemax = 0;
    while (nel < n) {
        // 1. Pivot: head of the lowest non-empty degree list.
        int k = -1;
        while (mindeg < n && (k = head[mindeg]) == -1) ++mindeg;
        ATMOR_CHECK(k >= 0, "amd_order: degree lists empty with " << n - nel << " nodes left");
        if (next[k] != -1) last[next[k]] = -1;
        head[mindeg] = next[k];
        const int elenk = elen[k];
        int nvk = nv[k];
        nel += nvk;

        // Lk is written past cnz when k touches elements; compact the
        // quotient graph first if it might not fit. Each live list is
        // tagged by overwriting its first entry with flip(owner).
        if (elenk > 0 && cnz + mindeg >= capacity) {
            for (int j = 0; j < n; ++j)
                if (pe[j] >= 0) {
                    const int first = iw[pe[j]];
                    iw[pe[j]] = flip(j);
                    pe[j] = first;
                }
            int q = 0;
            for (int p = 0; p < cnz;) {
                const int j = flip(iw[p++]);
                if (j < 0) continue;
                iw[q] = pe[j];
                pe[j] = q++;
                for (int t = 1; t < len[j]; ++t) iw[q++] = iw[p++];
            }
            cnz = q;
            ATMOR_CHECK(cnz + mindeg < capacity, "amd_order: quotient graph overflow");
        }

        // 2. Element Lk = union of the touched elements' lists and k's own
        // variables, each supervariable once (nv negated while inside Lk).
        int dk = 0;
        nv[k] = -nvk;
        int p = pe[k];
        const int pk1 = (elenk == 0) ? p : cnz;  // in place when k touches no element
        int pk2 = pk1;
        for (int k1 = 0; k1 <= elenk; ++k1) {
            int e, pj, ln;
            if (k1 == elenk) {
                e = k;
                pj = p;
                ln = len[k] - elenk;
            } else {
                e = iw[p++];
                pj = pe[e];
                ln = len[e];
            }
            for (int k2 = 0; k2 < ln; ++k2) {
                const int i = iw[pj++];
                const int nvi = nv[i];
                if (nvi <= 0) continue;
                dk += nvi;
                nv[i] = -nvi;
                iw[pk2++] = i;
                if (next[i] != -1) last[next[i]] = last[i];
                if (last[i] != -1)
                    next[last[i]] = next[i];
                else
                    head[degree[i]] = next[i];
            }
            if (e != k) {
                pe[e] = flip(k);  // element absorption
                w[e] = 0;
            }
        }
        if (elenk != 0) cnz = pk2;
        degree[k] = dk;
        pe[k] = pk1;
        len[k] = pk2 - pk1;
        elen[k] = -2;

        // 3. w[e] - mark = |Le \ Lk| for every live element next to Lk.
        for (int pk = pk1; pk < pk2; ++pk) {
            const int i = iw[pk];
            if (elen[i] <= 0) continue;
            const int nvi = -nv[i];
            for (int q = pe[i]; q < pe[i] + elen[i]; ++q) {
                const int e = iw[q];
                if (w[e] >= mark)
                    w[e] -= nvi;
                else if (w[e] != 0)
                    w[e] = degree[e] + mark - nvi;
            }
        }

        // 4. Approximate external degrees; prune each list and put k first.
        for (int pk = pk1; pk < pk2; ++pk) {
            const int i = iw[pk];
            const int p1 = pe[i];
            const int p2 = p1 + elen[i];
            int pn = p1;
            std::int64_t d = 0;
            std::uint64_t h = 0;
            for (int q = p1; q < p2; ++q) {
                const int e = iw[q];
                if (w[e] == 0) continue;
                const std::int64_t dext = w[e] - mark;
                if (dext > 0) {
                    d += dext;
                    iw[pn++] = e;
                    h += static_cast<std::uint64_t>(e);
                } else {
                    pe[e] = flip(k);  // aggressive absorption: Le is inside Lk
                    w[e] = 0;
                }
            }
            elen[i] = pn - p1 + 1;
            const int p3 = pn;
            for (int q = p2; q < p1 + len[i]; ++q) {
                const int j = iw[q];
                if (nv[j] <= 0) continue;
                d += nv[j];
                iw[pn++] = j;
                h += static_cast<std::uint64_t>(j);
            }
            if (d == 0) {
                // Mass elimination: nothing outside Lk, so i goes with k.
                pe[i] = flip(k);
                const int nvi = -nv[i];
                dk -= nvi;
                nvk += nvi;
                nel += nvi;
                nv[i] = 0;
                elen[i] = -1;
            } else {
                degree[i] = static_cast<int>(std::min<std::int64_t>(degree[i], d));
                // i lost at least its link to k or to an absorbed element,
                // so slot pn is free: k goes first, the first element
                // moves to the head of the variables, that one to the end.
                iw[pn] = iw[p3];
                iw[p3] = iw[p1];
                iw[p1] = k;
                len[i] = pn - p1 + 1;
                const int bucket = static_cast<int>(h % static_cast<std::uint64_t>(n));
                next[i] = hhead[bucket];
                hhead[bucket] = i;
                last[i] = bucket;
            }
        }
        degree[k] = dk;
        lemax = std::max(lemax, dk);
        mark += lemax;  // above every w[] value set this step

        // 5. Supervariables: within each hash bucket, merge variables whose
        // lists (past the common k) hold the same nodes.
        for (int pk = pk1; pk < pk2; ++pk) {
            int i = iw[pk];
            if (nv[i] >= 0) continue;
            const int bucket = last[i];
            i = hhead[bucket];
            hhead[bucket] = -1;
            for (; i != -1 && next[i] != -1; i = next[i], ++mark) {
                const int ln = len[i];
                const int eln = elen[i];
                for (int q = pe[i] + 1; q < pe[i] + ln; ++q) w[iw[q]] = mark;
                int jlast = i;
                for (int j = next[i]; j != -1;) {
                    bool same = len[j] == ln && elen[j] == eln;
                    for (int q = pe[j] + 1; same && q < pe[j] + ln; ++q)
                        same = w[iw[q]] == mark;
                    if (same) {
                        pe[j] = flip(i);
                        nv[i] += nv[j];
                        nv[j] = 0;
                        elen[j] = -1;
                        j = next[j];
                        next[jlast] = j;
                    } else {
                        jlast = j;
                        j = next[j];
                    }
                }
            }
        }

        // 6. Back into the degree lists: the bound |Lk \ i| plus the
        // external part, capped by the number of variables left.
        int pl = pk1;
        for (int pk = pk1; pk < pk2; ++pk) {
            const int i = iw[pk];
            const int nvi = -nv[i];
            if (nvi <= 0) continue;
            nv[i] = nvi;
            const int d = std::min(degree[i] + dk - nvi, n - nel - nvi);
            if (head[d] != -1) last[head[d]] = i;
            next[i] = head[d];
            last[i] = -1;
            head[d] = i;
            mindeg = std::min(mindeg, d);
            degree[i] = d;
            iw[pl++] = i;
        }
        nv[k] = nvk;
        len[k] = pl - pk1;
        if (len[k] == 0) {
            pe[k] = -1;
            w[k] = 0;
        }
        if (elenk != 0) cnz = pl;
    }

    // --- Postorder of the assembly tree (parent = flip(pe)). Children are
    // listed elements first, then absorbed variables, each in index order.
    for (int i = 0; i <= n; ++i) pe[i] = flip(pe[i]);
    std::fill(head, head + n1, -1);
    for (int j = n; j >= 0; --j) {
        if (nv[j] > 0 || pe[j] == -1) continue;
        next[j] = head[pe[j]];
        head[pe[j]] = j;
    }
    for (int e = n; e >= 0; --e) {
        if (nv[e] <= 0 || pe[e] == -1) continue;
        next[e] = head[pe[e]];
        head[pe[e]] = e;
    }
    std::vector<int> order;
    order.reserve(n1);
    std::vector<int> stack;
    for (int root = 0; root <= n; ++root) {
        if (pe[root] != -1) continue;
        stack.push_back(root);
        while (!stack.empty()) {
            const int v = stack.back();
            const int child = head[v];
            if (child == -1) {
                stack.pop_back();
                if (v != n) order.push_back(v);
            } else {
                head[v] = next[child];
                stack.push_back(child);
            }
        }
    }
    ATMOR_CHECK(static_cast<int>(order.size()) == n,
                "amd_order: ordered " << order.size() << " of " << n << " nodes");
    return order;
}

}  // namespace

template <class T>
std::vector<int> amd_order(const Csc<T>& a) {
    ATMOR_REQUIRE(a.n >= 1 && static_cast<int>(a.col_ptr.size()) == a.n + 1,
                  "amd_order: malformed CSC pattern");
    return amd_pattern_order(a.n, a.col_ptr, a.row_idx);
}

template std::vector<int> amd_order(const Csc<double>&);
template std::vector<int> amd_order(const Csc<la::Complex>&);

}  // namespace atmor::sparse
