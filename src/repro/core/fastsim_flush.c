/*
 * Native replay of the peeling kernels' launches for the vectorized
 * engine in ``repro/core/fastsim.py``: one call replays one scan launch
 * (Alg. 2, ``repro_scan``) or one loop launch (Alg. 3, ``repro_loop``)
 * and folds its stats (``repro_fold``).  The reference interpreter
 * (``repro/core/scan_kernel.py`` and ``repro/core/loop_kernel.py`` run
 * by ``repro/gpusim/scheduler.py``) defines the results this file must
 * reproduce bit for bit; it serves every launch this file declines or
 * cannot serve (no compiler, a failed build), and the tests pin this
 * replay against it.
 *
 * The scan walks the degree array in 32-vertex chunks, one chunk per
 * warp trip, in ascending order.  A block appends its warps' hits in
 * (trip, warp, lane) order, which is ascending vertex id, and every
 * charge of a trip is a function of the trip's lane and hit counts
 * and the block's tail alone, so the walk yields the buffer content,
 * the tails and every charge.  A count pass runs first and checks the
 * overflow and every index the write pass will use, so a scan
 * declines before its first write and needs no undo log.
 *
 * The loop replay walks the reference FIFO scheduler phase by phase
 * (HEAD, BODY or MID/TAIL), emitting one event per warp that fetched a
 * frontier vertex; the next HEAD flushes the pending events in
 * emission order.  One event is one warp's sweep of one frontier
 * vertex (Alg. 3, Lines 12-24): buffer read, bounds load, then 32-lane
 * trips whose atomics apply in lane order.
 *
 * The charges are the reference's, summed in a different grouping (the
 * scan's hit-independent ones first; the loop's init-turn charges,
 * per-flush sums folded at each flush, final-turn charges at their
 * HEAD turn, per-turn phase counts folded last).  The caller declines
 * a cost model whose global-load latency or global atomic base charge
 * is off the quarter-integer grid, or whose shared-memory charges are
 * not the default's (this file hard-codes them), so every sum is exact
 * and the grouping changes no bit.  The fold is not regrouped: it
 * makes ``run_kernel``'s epilogue's double operations in its order,
 * because its 0.3 cycles per transaction is not dyadic.  The file is
 * built without -ffast-math and with -ffp-contract=off besides.
 *
 * The loop replay writes ``deg``, ``buf`` and ``gpu_count`` in place
 * and logs what it overwrote: each decremented degree id, each block's
 * global buffer slots (contiguous from the block's ``e_init``) and the
 * ``gpu_count`` adds.  Every index into an array the caller passed is
 * checked against its length.  A non-zero return declines the launch
 * (the caller raises FallbackToReference) after the log has undone
 * every write, so a declined launch leaves no trace.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* the return codes; fastsim.py raises the named decline */
enum {
    REPLAY_OK = 0,
    REPLAY_READ_OVERFLOW = 1,   /* "loop buffer read overflow" */
    REPLAY_OUTSIDE_SLICE = 2,   /* "frontier vertex outside CSR slice" */
    REPLAY_APPEND_OVERFLOW = 3, /* "... buffer overflow; reference raises" */
    REPLAY_OUT_OF_BOUNDS = 4,   /* "... replay index out of bounds" */
    REPLAY_UNDO_FULL = 5,       /* "loop undo log full" */
    REPLAY_NO_MEMORY = 6,       /* "native ... replay out of memory" */
};

/* the per-block rows of the accumulators, after issued and path per warp */
enum {
    ROW_TRANS, ROW_ACCESSES, ROW_LANES, ROW_IDEAL, ROW_ATOMIC,
    ROW_CONFLICTS, ROW_PEAK, ROW_BARRIERS, ROW_COUNT
};

/* the launch totals ``repro_fold`` writes first in ``out``, in
 * ``KernelStats`` field order; the per-block issued sums and warp-path
 * maxima follow them */
enum {
    TOT_CYCLES, TOT_ISSUED, TOT_TRANS, TOT_BARRIERS, TOT_PATH,
    TOT_CONFLICTS, TOT_PEAK, TOT_ATOMIC, TOT_ACCESSES, TOT_LANES,
    TOT_IDEAL, TOT_COUNT
};

/* Python's ``max`` of n >= 1 doubles: the first of equal values wins */
static double first_max(const double *x, int64_t n)
{
    double m = x[0];
    for (int64_t i = 1; i < n; ++i)
        if (x[i] > m)
            m = x[i];
    return m;
}

/* Fold a launch's accumulators into its stats, as ``run_kernel``'s
 * epilogue does over its BlockTiming records, with the same double
 * operations in the same order: each block's issued sum in warp order
 * and its path maximum, each block's roofline
 * ``max(issued / issue_width, transactions * per_transaction, path)
 * + barriers * per_barrier`` added to its SM round-robin in block
 * order, the busiest SM, and the totals summed or maximised over the
 * blocks in block order.
 *
 * ``acc`` holds ``issued`` and ``path`` per warp (``grid * warps``
 * each), then the ROW_COUNT per-block rows of ``grid``.  ``out`` gets
 * TOT_COUNT totals, then ``grid`` issued sums and ``grid`` paths. */
static void repro_fold(const double *acc, int64_t grid, int64_t warps,
                       int64_t num_sms, double issue_width,
                       double per_transaction, double per_barrier,
                       double *out)
{
    const int64_t nwarps = grid * warps;
    const int64_t nsm = num_sms > 1 ? num_sms : 1;
    const double *rows = acc + 2 * nwarps;
    double *issued = out + TOT_COUNT, *path = issued + grid;
    for (int64_t b = 0; b < grid; ++b) {
        double sum = 0.0;
        for (int64_t w = 0; w < warps; ++w)
            sum += acc[b * warps + w];
        issued[b] = sum;
        path[b] = first_max(acc + nwarps + b * warps, warps);
    }
    /* SM s runs blocks s, s + nsm, ... in block order; an SM without
     * blocks keeps its 0.0, which the busiest-SM max still sees */
    double cycles = 0.0;
    for (int64_t s = 0; s < nsm && s < grid; ++s) {
        double load = 0.0;
        for (int64_t b = s; b < grid; b += nsm) {
            double m = issued[b] / issue_width;
            const double mem = rows[ROW_TRANS * grid + b] * per_transaction;
            if (mem > m)
                m = mem;
            if (path[b] > m)
                m = path[b];
            load += m + rows[ROW_BARRIERS * grid + b] * per_barrier;
        }
        if (s == 0 || load > cycles)
            cycles = load;
    }
    if (grid > 0 && nsm > grid && 0.0 > cycles)
        cycles = 0.0;
    out[TOT_CYCLES] = cycles;
    static const int sums[][2] = {
        {TOT_TRANS, ROW_TRANS}, {TOT_BARRIERS, ROW_BARRIERS},
        {TOT_CONFLICTS, ROW_CONFLICTS}, {TOT_ATOMIC, ROW_ATOMIC},
        {TOT_ACCESSES, ROW_ACCESSES}, {TOT_LANES, ROW_LANES},
        {TOT_IDEAL, ROW_IDEAL},
    };
    for (size_t i = 0; i < sizeof sums / sizeof sums[0]; ++i) {
        double sum = 0.0;
        for (int64_t b = 0; b < grid; ++b)
            sum += rows[sums[i][1] * grid + b];
        out[sums[i][0]] = sum;
    }
    double total = 0.0;
    for (int64_t b = 0; b < grid; ++b)
        total += issued[b];
    out[TOT_ISSUED] = total;
    out[TOT_PATH] = grid ? first_max(path, grid) : 0.0;
    out[TOT_PEAK] = grid ? first_max(rows + ROW_PEAK * grid, grid) : 0.0;
}

/* The accumulators and the fold's constants and output, the last
 * fields of both contexts: ``_FOLD_FIELDS`` in fastsim.py. */
#define FOLD_FIELDS \
    double *acc; \
    double *out; \
    int64_t num_sms; \
    double issue_width; \
    double per_transaction; \
    double per_barrier

#define FOLD(c) \
    repro_fold((c)->acc, (c)->grid, (c)->warps, (c)->num_sms, \
               (c)->issue_width, (c)->per_transaction, (c)->per_barrier, \
               (c)->out)

/* Mirrors ``_ScanCtx`` in fastsim.py field for field. */
typedef struct {
    const int64_t *deg; /* device arrays: deg read, buf and tails written */
    int64_t dsz;
    int64_t *buf;
    int64_t bsz;
    int64_t *tails;
    int64_t tsz;
    int64_t grid;
    int64_t warps;
    int64_t k;
    int64_t nv;
    int64_t lo;
    int64_t cap;
    int64_t compaction; /* 0: per-lane atomics, 1: warp ballot, 2: block */
    FOLD_FIELDS;
} scan_ctx;

/* The scan's charges that do not depend on which vertices hit, into
 * zeroed accumulators.  Every trip charges the hit flags (4), the
 * coalesced degree read and hit mask (2) when it has lanes in range,
 * and the append scheme's warp scan (ballot 3, block 12); per block,
 * Warp 0 runs the prologue and epilogue (3) and the tails store, and
 * the block passes two barriers.  Block compaction (EC) makes every
 * warp take the same trip count, so that the barriers line up, and
 * adds Warp 0's stages 2-3 and three barriers per trip. */
static void scan_base(const scan_ctx *c)
{
    const int64_t grid = c->grid, warps = c->warps, nwarps = grid * warps;
    const int64_t stride = 32 * nwarps;
    const int64_t span = c->nv > c->lo ? c->nv - c->lo : 0;
    const double scheme = c->compaction == 1 ? 3.0
                          : c->compaction == 2 ? 12.0 : 0.0;
    double *issued = c->acc, *path = issued + nwarps, *rows = path + nwarps;
    int64_t steps = 1; /* log2(warps) rounded down, at least 1 */
    while ((int64_t)1 << (steps + 1) <= warps)
        ++steps;
    memset(c->acc, 0,
           sizeof(double) * (size_t)(2 * nwarps + ROW_COUNT * grid));
    for (int64_t g = 0; g < nwarps; ++g) {
        const int64_t b = g / warps, base = c->lo + 32 * g;
        int64_t trips;
        if (c->compaction == 2) {
            trips = (span + stride - 1) / stride;
            trips = trips < 1 ? 1 : trips;
        } else {
            trips = c->nv > base ? (c->nv - base + stride - 1) / stride : 0;
        }
        for (int64_t t = 0; t < trips; ++t) {
            const int64_t first = base + t * stride;
            const int64_t lanes = c->nv - first < 32 ? c->nv - first : 32;
            double charge = 4.0 + scheme;
            if (lanes > 0) {
                charge += 2.0;
                rows[ROW_TRANS * grid + b] +=
                    (double)((first + lanes - 1) / 32 - first / 32 + 1);
                rows[ROW_ACCESSES * grid + b] += 1.0;
                rows[ROW_LANES * grid + b] += (double)lanes;
                rows[ROW_IDEAL * grid + b] += 1.0;
            }
            issued[g] += charge;
            path[g] += charge;
        }
        if (g % warps)
            continue;
        if (c->compaction == 2) {
            /* sload(counts) + scan charge(2 log2 W + 2) + atomicAdd(e,
             * total, lanes=1) + sstore(woffs), every trip */
            const double stage = 1.0 + (double)(2 * steps + 2);
            issued[g] += (stage + 1.0 + 1.0) * (double)trips;
            path[g] += (stage + 2.0 + 1.0) * (double)trips;
            rows[ROW_ATOMIC * grid + b] += 2.0 * (double)trips;
            rows[ROW_BARRIERS * grid + b] += 3.0 * (double)trips;
        }
        issued[g] += 3.0; /* smem_set("e", 0) + smem_get("e") + gstore */
        path[g] += 3.0;
        for (int64_t row = ROW_TRANS; row <= ROW_IDEAL; ++row)
            rows[row * grid + b] += 1.0; /* the tails store */
        rows[ROW_BARRIERS * grid + b] += 2.0; /* Line 2 + the final one */
    }
}

/* One scan launch (Alg. 2): the hits ``deg[v] == k`` of
 * ``[lo, nv)``, appended to their blocks' buffers, and the charges
 * that depend on them added to ``scan_base``'s.  Chunk ``ci`` (the
 * 32 vertices from ``lo + 32 * ci``) is trip ``ci / (grid * warps)`` of
 * global warp ``ci % (grid * warps)``, so ascending chunks are every
 * block's append order.  ``hits`` has room for a count per chunk,
 * ``tail`` for two rows of ``grid``. */
static int scan(const scan_ctx *c, int64_t nchunks, uint8_t *hits,
                int64_t *tail)
{
    const int64_t grid = c->grid, warps = c->warps, cap = c->cap;
    const int64_t nwarps = grid * warps;
    /* -- the count pass: each block's final tail ----------------------- */
    for (int64_t ci = 0; ci < nchunks; ++ci) {
        const int64_t v0 = c->lo + 32 * ci;
        const int64_t n = c->nv - v0 < 32 ? c->nv - v0 : 32;
        int h = 0;
        for (int64_t j = 0; j < n; ++j)
            h += c->deg[v0 + j] == c->k;
        hits[ci] = (uint8_t)h;
        tail[ci % nwarps / warps] += h;
    }
    /* the reference raises BufferOverflowError past ``cap``; the writes
     * must fit ``buf``: ``b * cap + tail <= bsz``, without overflow */
    for (int64_t b = 0; b < grid; ++b)
        if (tail[b] > cap)
            return REPLAY_APPEND_OVERFLOW;
    for (int64_t b = 0; b < grid; ++b)
        if (tail[b] && (tail[b] > c->bsz || b > (c->bsz - tail[b]) / cap))
            return REPLAY_OUT_OF_BOUNDS;
    /* -- the write pass: no decline from here ------------------------- */
    double *ti = c->acc, *tp = ti + nwarps, *rows = tp + nwarps;
    int64_t *at = tail + grid; /* the running tails */
    scan_base(c);
    for (int64_t ci = 0; ci < nchunks; ++ci) {
        const int64_t h = hits[ci];
        if (!h)
            continue;
        const int64_t wg = ci % nwarps, b = wg / warps;
        if (c->compaction == 0) {
            /* atomicAdd(e, h): h serialised lanes + buffered gstore */
            const double sa = 2.0 + 0.25 * (double)(h - 1);
            ti[wg] += 2.0;
            tp[wg] += sa + 1.0;
            rows[ROW_ATOMIC * grid + b] += sa;
            rows[ROW_CONFLICTS * grid + b] += (double)(h - 1);
        } else if (c->compaction == 1) {
            ti[wg] += 4.0; /* atomic + shfl + charge(1) + gstore */
            tp[wg] += 5.0;
            rows[ROW_ATOMIC * grid + b] += 2.0;
        } else { /* sload(woffs) + gstore */
            ti[wg] += 2.0;
            tp[wg] += 2.0;
        }
        const int64_t a0 = b * cap + at[b];
        rows[ROW_TRANS * grid + b] +=
            (double)((a0 + h - 1) / 32 - a0 / 32 + 1);
        rows[ROW_ACCESSES * grid + b] += 1.0;
        rows[ROW_LANES * grid + b] += (double)h;
        rows[ROW_IDEAL * grid + b] += 1.0;
        const int64_t v0 = c->lo + 32 * ci;
        const int64_t n = c->nv - v0 < 32 ? c->nv - v0 : 32;
        int64_t *slot = c->buf + a0;
        for (int64_t j = 0; j < n; ++j)
            if (c->deg[v0 + j] == c->k)
                *slot++ = v0 + j;
        at[b] += h;
    }
    for (int64_t b = 0; b < grid; ++b) {
        rows[ROW_PEAK * grid + b] = (double)tail[b]; /* the final tail */
        c->tails[b] = tail[b];
    }
    FOLD(c);
    return REPLAY_OK;
}

int repro_scan(const scan_ctx *c)
{
    const int64_t span = c->nv > c->lo ? c->nv - c->lo : 0;
    const int64_t nchunks = c->grid > 0 && c->warps > 0 ? (span + 31) / 32 : 0;
    if (c->tsz < c->grid || (nchunks && (c->lo < 0 || c->nv > c->dsz)))
        return REPLAY_OUT_OF_BOUNDS;
    uint8_t *hits = malloc((size_t)nchunks + 1);
    int64_t *tail = calloc((size_t)(2 * c->grid + 1), sizeof(int64_t));
    const int rc = hits && tail ? scan(c, nchunks, hits, tail)
                                : REPLAY_NO_MEMORY;
    free(hits);
    free(tail);
    return rc;
}

/* Mirrors ``_LoopCtx`` in fastsim.py field for field.  The caller
 * guarantees ``tails`` holds ``grid`` entries and ``gpu_count`` one. */
typedef struct {
    const int64_t *offs; /* the CSR slice (read only) */
    int64_t osz;
    const int64_t *nbrs;
    int64_t nsz;
    int64_t *deg; /* device arrays, written in place */
    int64_t dsz;
    int64_t *buf;
    int64_t bsz;
    const int64_t *tails;
    int64_t *gpu_count;
    int64_t grid;
    int64_t warps;
    int64_t k;
    int64_t cap;
    int64_t scap;
    int64_t sm;
    int64_t prefetch;
    int64_t no_compaction;
    int64_t base;
    int64_t owned; /* 1: appends restricted to [lo, hi) */
    int64_t lo;
    int64_t hi;
    double gll;
    double gab;
    double scan_cost;
    FOLD_FIELDS;
} loop_ctx;

/* one block's shared scalars */
typedef struct {
    int64_t s, e, e_init, pn_cur, pn_next, parity;
    int64_t head_s, head_e, head_pn, pending;
    int64_t saved; /* global slots logged from b * cap + e_init on */
} block_state;

/* per-turn phase counts, folded into the accumulators last */
enum {
    CNT_HEAD, CNT_BODY_W0, CNT_MID_W0, CNT_BATCH_W0, CNT_TAIL_W0,
    CNT_TRANS, CNT_ACC, CNT_LANES, CNT_IDEAL, CNT_BARRIERS, CNT_ROWS
};

typedef struct {
    const loop_ctx *c;
    int64_t nwarps;
    block_state *blk;
    int64_t *ev; /* pending events: block, gwid, slot, value rows */
    int64_t evcap, nev;
    double *sums;   /* per-flush sums: 2 * nwarps + 7 * grid */
    int64_t *cnt;   /* CNT_ROWS rows of grid */
    int64_t *mid_loads; /* per warp */
    int64_t *order; /* live blocks, then the ones kept (2 * grid) */
    int64_t *worder; /* each block's warp pop order (drain) */
    int64_t *stay;   /* the pop order being rebuilt (2 * warps) */
    int64_t *window; /* each block's shared ``B`` (sm) */
    int64_t *pref;   /* each block's two prefetch buffers */
    int64_t *saved;  /* undo: old buffer words, at their own index */
    int64_t *dlog;   /* undo: decremented degree ids */
    int64_t ndlog, dlogcap;
    int64_t gpu_added; /* undo: sum of the gpu_count adds */
} replay;

/* distinct values of x >> 5 among n ids (n <= 32) */
static int64_t segments(const int64_t *ids, int64_t n)
{
    int64_t seen[32];
    int64_t count = 0;
    for (int64_t i = 0; i < n; ++i) {
        int64_t seg = ids[i] >> 5;
        int64_t j = 0;
        while (j < count && seen[j] != seg)
            ++j;
        if (j == count)
            seen[count++] = seg;
    }
    return count;
}

/* wrapping int64 add and subtract, as numpy's on an int64 array */
static int64_t wrap_add(int64_t a, int64_t b)
{
    return (int64_t)((uint64_t)a + (uint64_t)b);
}

static int64_t wrap_sub(int64_t a, int64_t b)
{
    return (int64_t)((uint64_t)a - (uint64_t)b);
}

/* one per-block row of the accumulators */
static double *block_row(const replay *r, int64_t row)
{
    return r->c->acc + 2 * r->nwarps + row * r->c->grid;
}

/* Replay the pending events in emission order, then fold the
 * per-flush sums.  One event is one warp's full adjacency sweep of one
 * frontier vertex (Alg. 3 Lines 12-24), replayed the way the reference
 * interpreter runs it: buffer read, bounds load, then trip by trip,
 * serialising the atomics in lane order.  The launch-level
 * no-duplicate-adjacency guard makes every vertex of a trip distinct,
 * so the pre-trip degree is the value each lane's atomic observes. */
static int flush(replay *r)
{
    const loop_ctx *c = r->c;
    const int64_t grid = c->grid, nwarps = r->nwarps, cap = c->cap;
    const int64_t scap = c->sm ? c->scap : 0, k = c->k;
    const int64_t effective = cap + scap, nev = r->nev;
    const int64_t *evb = r->ev, *evg = evb + r->evcap;
    const int64_t *evs = evg + r->evcap, *evv = evs + r->evcap;
    double *wi = r->sums, *wp = wi + nwarps, *bt = wp + nwarps;
    double *ba = bt + grid, *bl = ba + grid, *bi = bl + grid;
    double *bat = bi + grid, *bcf = bat + grid, *bpk = bcf + grid;
    memset(r->sums, 0, sizeof(double) * (size_t)(2 * nwarps + 7 * grid));

    for (int64_t i = 0; i < nev; ++i) {
        const int64_t b = evb[i], g = evg[i];
        block_state *blk = &r->blk[b];
        int64_t slot = evs[i], v = evv[i];
        /* -- the buffer read (value events carry their vertex) ------- */
        if (slot >= 0) {
            if (c->sm) {
                const int64_t e_init = blk->e_init;
                wi[g] += 5.0; /* smem_get(e_init) + charge(4) */
                wp[g] += 5.0;
                if (e_init <= slot && slot < e_init + scap) {
                    wi[g] += 1.0; /* sload */
                    wp[g] += 1.0;
                    v = r->window[b * scap + slot - e_init];
                    slot = -1;
                } else if (slot >= e_init) {
                    slot -= scap; /* Fig. 7: global slots above the window */
                }
            }
            if (slot >= cap)
                return REPLAY_READ_OVERFLOW;
            if (slot >= 0) {
                const int64_t at = b * cap + slot;
                wi[g] += 1.0; /* gload of one word */
                wp[g] += 1.0 + c->gll;
                bt[b] += 1.0;
                ba[b] += 1.0;
                bl[b] += 1.0;
                bi[b] += 1.0;
                if (at >= c->bsz)
                    return REPLAY_OUT_OF_BOUNDS;
                v = c->buf[at];
            }
        }
        /* -- Line 13: bounds load (two consecutive offsets words) ---- */
        const int64_t rel = v - c->base;
        if (rel < 0 || rel + 1 >= c->osz)
            return REPLAY_OUTSIDE_SLICE;
        const int64_t s = c->offs[rel], e = c->offs[rel + 1];
        if (s < e && (s < 0 || e > c->nsz))
            return REPLAY_OUT_OF_BOUNDS;
        wi[g] += 1.0;
        wp[g] += 1.0 + c->gll;
        bt[b] += (double)((rel + 1) / 32 - rel / 32 + 1);
        ba[b] += 1.0;
        bl[b] += 2.0;
        bi[b] += 1.0;
        /* -- the adjacency sweep, one 32-lane trip at a time --------- */
        for (int64_t pos0 = s; pos0 < e; pos0 += 32) {
            const int64_t l = e - pos0 < 32 ? e - pos0 : 32;
            const int64_t *u = c->nbrs + pos0;
            int64_t cand[32], newly[32];
            int64_t nc = 0, nw = 0;
            for (int64_t j = 0; j < l; ++j)
                if (u[j] < 0 || u[j] >= c->dsz)
                    return REPLAY_OUT_OF_BOUNDS;
            /* sync_warp + neighbors gload + deg gload + charge(4) */
            wi[g] += 7.0 + c->scan_cost;
            wp[g] += 7.0 + 2.0 * c->gll + c->scan_cost;
            /* every x in a trip is distinct (launch-level duplicate
             * guard), so in-loop writes never shadow a later read */
            for (int64_t j = 0; j < l; ++j) {
                const int64_t x = u[j], du = c->deg[x];
                if (du > k) {
                    if (r->ndlog == r->dlogcap)
                        return REPLAY_UNDO_FULL;
                    r->dlog[r->ndlog++] = x;
                    cand[nc++] = x;
                    c->deg[x] = du - 1;
                    if (du == k + 1 && (!c->owned || (c->lo <= x && x < c->hi)))
                        newly[nw++] = x;
                }
            }
            bt[b] += (double)((pos0 + l - 1) / 32 - pos0 / 32 + 1
                              + segments(u, l));
            ba[b] += 2.0;
            bl[b] += 2.0 * (double)l;
            bi[b] += 2.0;
            if (nc) {
                /* Line 21: atomicSub (distinct addresses: no conflicts) */
                wi[g] += 1.0;
                wp[g] += c->gab;
                bat[b] += c->gab;
                bt[b] += (double)segments(cand, nc);
                ba[b] += 1.0;
                bl[b] += (double)nc;
                bi[b] += 1.0;
            }
            if (!nw)
                continue;
            /* -- append the newly-dead vertices ---------------------- */
            const int64_t loc = blk->e;
            if (loc + nw > effective)
                return REPLAY_APPEND_OVERFLOW;
            if (c->no_compaction) {
                const double sa = 2.0 + 0.25 * (double)(nw - 1);
                wi[g] += 1.0;
                wp[g] += sa;
                bat[b] += sa;
                bcf[b] += (double)(nw - 1);
            } else {
                wi[g] += 3.0; /* atomic + shfl + charge */
                wp[g] += 4.0;
                bat[b] += 2.0;
            }
            int64_t n_sh = 0, gl_start = b * cap + loc;
            if (c->sm) {
                const int64_t e_init = blk->e_init;
                const int64_t top = loc > e_init + scap ? loc : e_init + scap;
                n_sh = e_init + scap - loc;
                n_sh = n_sh < 0 ? 0 : (n_sh > nw ? nw : n_sh);
                gl_start = b * cap + top - scap;
                wi[g] += 5.0; /* smem_get(e_init) + charge(4) */
                wp[g] += 5.0;
                if (n_sh) {
                    wi[g] += 1.0; /* sstore */
                    wp[g] += 1.0;
                    memcpy(r->window + b * scap + loc - e_init, newly,
                           sizeof(int64_t) * (size_t)n_sh);
                }
            }
            const int64_t n_gl = nw - n_sh;
            if (n_gl) {
                wi[g] += 1.0; /* gstore */
                wp[g] += 1.0;
                bt[b] += (double)((gl_start + n_gl - 1) / 32
                                  - gl_start / 32 + 1);
                ba[b] += 1.0;
                bl[b] += (double)n_gl;
                bi[b] += 1.0;
                /* the block's writes run on from b * cap + e_init, so
                 * the slots they overwrite are logged at their index */
                if (gl_start != b * cap + blk->e_init + blk->saved
                    || gl_start + n_gl > c->bsz)
                    return REPLAY_OUT_OF_BOUNDS;
                memcpy(r->saved + gl_start, c->buf + gl_start,
                       sizeof(int64_t) * (size_t)n_gl);
                blk->saved += n_gl;
                memcpy(c->buf + gl_start, newly + n_sh,
                       sizeof(int64_t) * (size_t)n_gl);
            }
            if ((double)(loc + nw) > bpk[b])
                bpk[b] = (double)(loc + nw);
            blk->e = loc + nw;
        }
    }
    /* fold the per-flush sums into the launch accumulators: the sums
     * are laid out as ``acc`` up to the peaks, which fold by max */
    for (int64_t m = 0; m < 2 * nwarps + 6 * grid; ++m)
        c->acc[m] += r->sums[m];
    double *peak = block_row(r, ROW_PEAK);
    for (int64_t blk = 0; blk < grid; ++blk)
        if (bpk[blk] > peak[blk])
            peak[blk] = bpk[blk];
    r->nev = 0;
    for (int64_t blk = 0; blk < grid; ++blk)
        r->blk[blk].pending = 0;
    return REPLAY_OK;
}

static int emit(replay *r, int64_t b, int64_t g, int64_t slot, int64_t v)
{
    if (r->nev == r->evcap)
        return REPLAY_OUT_OF_BOUNDS;
    r->ev[r->nev] = b;
    r->ev[r->evcap + r->nev] = g;
    r->ev[2 * r->evcap + r->nev] = slot;
    r->ev[3 * r->evcap + r->nev] = v;
    r->nev++;
    r->blk[b].pending++;
    return REPLAY_OK;
}

/* the first turn: Thread 0 loads the block's tail (Lines 1-2) */
static int init_turn(replay *r, int64_t b)
{
    const loop_ctx *c = r->c;
    const int64_t g = b * c->warps, grid = c->grid;
    double *issued = c->acc, *path = issued + r->nwarps;
    const double sets = (double)(2 + c->sm + 2 * c->prefetch);
    const int64_t e0 = c->tails[b];
    if (e0 < 0)
        return REPLAY_OUT_OF_BOUNDS;
    issued[g] += 1.0;
    path[g] += 1.0 + c->gll;
    for (int64_t row = ROW_TRANS; row <= ROW_IDEAL; ++row)
        block_row(r, row)[b] += 1.0; /* one one-word global access */
    issued[g] += sets;
    path[g] += sets;
    r->blk[b].s = 0;
    r->blk[b].e = e0;
    r->blk[b].e_init = e0;
    r->cnt[CNT_BARRIERS * grid + b] += 1; /* the INIT arrival barrier */
    return REPLAY_OK;
}

/* Line 26: Thread 0 folds the block tail into gpu_count, all exit */
static void final_turn(replay *r, int64_t b)
{
    const loop_ctx *c = r->c;
    const int64_t g = b * c->warps;
    double *issued = c->acc, *path = issued + r->nwarps;
    issued[g] += 1.0; /* smem_get("e") */
    path[g] += 1.0;
    issued[g] += 1.0;
    path[g] += c->gab;
    block_row(r, ROW_ATOMIC)[b] += c->gab;
    for (int64_t row = ROW_TRANS; row <= ROW_IDEAL; ++row)
        block_row(r, row)[b] += 1.0; /* one one-word global access */
    c->gpu_count[0] = wrap_add(c->gpu_count[0], r->blk[b].e);
    r->gpu_added = wrap_add(r->gpu_added, r->blk[b].e);
}

/* the HEAD phase of every replay: flush check, exit test; returns the
 * kept blocks' count through ``nkeep`` */
static int head_phase(replay *r, int64_t norder, int64_t *nkeep)
{
    const int64_t grid = r->c->grid;
    const int64_t *order = r->order;
    int64_t *keep = r->order + grid;
    *nkeep = 0;
    for (int64_t i = 0; i < norder; ++i) {
        const int64_t b = order[i];
        block_state *blk = &r->blk[b];
        if (blk->pending) {
            const int rc = flush(r);
            if (rc)
                return rc;
        }
        r->cnt[CNT_HEAD * grid + b] += 1;
        r->cnt[CNT_BARRIERS * grid + b] += 1;
        if (blk->s == blk->e && blk->pn_cur == 0) {
            final_turn(r, b);
        } else {
            blk->head_s = blk->s;
            blk->head_e = blk->e;
            blk->head_pn = blk->pn_cur;
            keep[(*nkeep)++] = b;
        }
    }
    return REPLAY_OK;
}

/* The Ours/SM/BC/EC fetch loop (the interpreter's ``_drain``).
 *
 * The reference scheduler's FIFO keeps every block's warps contiguous
 * (barrier releases extend the queue atomically, and BODY steppers
 * re-append back to back), so blocks advance through the HEAD and BODY
 * phases in lockstep, in stable block order, and the replay iterates
 * whole phases.  Two reference behaviours survive the batching: the
 * first block popped at HEAD with pending events flushes everyone, and
 * a warp that skipped a BODY round (s + wid >= e) re-arrives at the
 * barrier before that round's emitters, so the block's pop order
 * permutes; ``worder`` tracks it, because the order in which warps
 * emit fixes the order of the atomics.  Per-turn charges (+5/+5 per
 * HEAD visit, +1/+1 per Thread-0 BODY turn) are counted and folded
 * afterwards. */
static int replay_drain(replay *r)
{
    const loop_ctx *c = r->c;
    const int64_t grid = c->grid, warps = c->warps;
    int64_t norder = grid, nkeep = 0;
    int64_t *stay = r->stay;
    for (int64_t b = 0; b < grid; ++b) {
        int rc = init_turn(r, b);
        if (rc)
            return rc;
        r->order[b] = b;
        for (int64_t w = 0; w < warps; ++w)
            r->worder[b * warps + w] = w;
    }
    while (norder) {
        int rc = head_phase(r, norder, &nkeep);
        if (rc)
            return rc;
        memmove(r->order, r->order + grid, sizeof(int64_t) * (size_t)nkeep);
        for (int64_t i = 0; i < nkeep; ++i) { /* BODY (Lines 9-12) */
            const int64_t b = r->order[i];
            block_state *blk = &r->blk[b];
            const int64_t s0 = blk->head_s, e0 = blk->head_e;
            int64_t *wo = r->worder + b * warps;
            r->cnt[CNT_BODY_W0 * grid + b] += 1;
            blk->s = s0 + warps < e0 ? s0 + warps : e0;
            if (e0 - s0 >= warps) {
                for (int64_t w = 0; w < warps; ++w)
                    if ((rc = emit(r, b, b * warps + wo[w], s0 + wo[w], -1)))
                        return rc;
            } else {
                /* warps past the tail re-arrive first: they lead the
                 * block's next pop order */
                int64_t nstay = 0, nstep = 0;
                for (int64_t w = 0; w < warps; ++w) {
                    if (s0 + wo[w] < e0) {
                        if ((rc = emit(r, b, b * warps + wo[w], s0 + wo[w], -1)))
                            return rc;
                        stay[warps + nstep++] = wo[w];
                    } else {
                        stay[nstay++] = wo[w];
                    }
                }
                memcpy(wo, stay, sizeof(int64_t) * (size_t)nstay);
                memcpy(wo + nstay, stay + warps, sizeof(int64_t) * (size_t)nstep);
            }
            r->cnt[CNT_BARRIERS * grid + b] += 1;
        }
        norder = nkeep;
    }
    /* fold the per-turn counts */
    double *issued = c->acc, *path = issued + r->nwarps;
    for (int64_t w = 0; w < r->nwarps; ++w) {
        const double hr = (double)r->cnt[CNT_HEAD * grid + w / warps];
        issued[w] += 5.0 * hr;
        path[w] += 5.0 * hr;
    }
    for (int64_t b = 0; b < grid; ++b) {
        const double bw = (double)r->cnt[CNT_BODY_W0 * grid + b];
        issued[b * warps] += bw;
        path[b * warps] += bw;
    }
    return REPLAY_OK;
}

/* The VP pipeline (the interpreter's ``_drain_prefetched``).
 *
 * The phase-lock argument of replay_drain applies, and every warp
 * re-queues every round, so the pop order never permutes: consumers
 * emit in plain warp order.  Each round is HEAD (flush check, exit
 * test), MID (Thread 0 prefetches the next batch while warps 1..pn
 * consume the previous one) and TAIL (publish pn, flip the
 * double-buffer parity): three barriers per round, the reference's
 * arrival counts.  Fixed per-turn charges are counted and folded
 * afterwards; only the prefetch turn's data-dependent ones are
 * charged inline. */
static int replay_prefetched(replay *r)
{
    const loop_ctx *c = r->c;
    const int64_t grid = c->grid, warps = c->warps, cap = c->cap;
    int64_t norder = grid, nkeep = 0;
    for (int64_t b = 0; b < grid; ++b) {
        int rc = init_turn(r, b);
        if (rc)
            return rc;
        r->order[b] = b;
    }
    while (norder) {
        int rc = head_phase(r, norder, &nkeep);
        if (rc)
            return rc;
        memmove(r->order, r->order + grid, sizeof(int64_t) * (size_t)nkeep);
        for (int64_t i = 0; i < nkeep; ++i) { /* MID */
            const int64_t b = r->order[i];
            block_state *blk = &r->blk[b];
            const int64_t g0 = b * warps;
            int64_t *pref = r->pref + 2 * g0; /* two buffers of `warps` */
            int64_t batch = blk->head_e - blk->head_s;
            batch = batch < warps - 1 ? batch : warps - 1;
            r->cnt[CNT_MID_W0 * grid + b] += 1;
            if (batch > 0) {
                /* read_batch: one dependent gload of `batch` words,
                 * then one sstore into the prefetch buffer */
                const int64_t start = b * cap + blk->head_s;
                const int64_t ideal = (batch + 31) / 32;
                r->cnt[CNT_BATCH_W0 * grid + b] += 1;
                r->cnt[CNT_TRANS * grid + b] +=
                    (start + batch - 1) / 32 - start / 32 + 1;
                r->cnt[CNT_ACC * grid + b] += ideal > 1 ? ideal : 1;
                r->cnt[CNT_LANES * grid + b] += batch;
                r->cnt[CNT_IDEAL * grid + b] += ideal;
                if (blk->head_s + batch > cap)
                    return REPLAY_READ_OVERFLOW;
                if (start + batch > c->bsz)
                    return REPLAY_OUT_OF_BOUNDS;
                memcpy(pref + (1 - blk->parity) * warps + 1, c->buf + start,
                       sizeof(int64_t) * (size_t)batch);
            }
            blk->s = blk->head_s + batch;
            blk->pn_next = batch;
            for (int64_t w = 1; w <= blk->head_pn; ++w) {
                r->mid_loads[g0 + w] += 1;
                if ((rc = emit(r, b, g0 + w, -1, pref[blk->parity * warps + w])))
                    return rc;
            }
            r->cnt[CNT_BARRIERS * grid + b] += 1;
        }
        for (int64_t i = 0; i < nkeep; ++i) { /* TAIL */
            const int64_t b = r->order[i];
            r->cnt[CNT_TAIL_W0 * grid + b] += 1; /* smem_get + smem_set */
            r->blk[b].pn_cur = r->blk[b].pn_next;
            r->blk[b].parity ^= 1; /* every warp advanced `iteration` */
            r->cnt[CNT_BARRIERS * grid + b] += 1; /* STEPPED re-arrival */
        }
        norder = nkeep;
    }
    /* fold the per-turn counts */
    double *issued = c->acc, *path = issued + r->nwarps;
    for (int64_t w = 0; w < r->nwarps; ++w) {
        const double hv = (double)r->cnt[CNT_HEAD * grid + w / warps];
        const double ml = (double)r->mid_loads[w];
        issued[w] += 4.0 * hv + ml;
        path[w] += 4.0 * hv + ml;
    }
    for (int64_t b = 0; b < grid; ++b) {
        const double tw = (double)r->cnt[CNT_TAIL_W0 * grid + b];
        const double mw = (double)r->cnt[CNT_MID_W0 * grid + b];
        const double bw = (double)r->cnt[CNT_BATCH_W0 * grid + b];
        issued[b * warps] += 2.0 * tw + 4.0 * mw + 2.0 * bw;
        path[b * warps] += 2.0 * tw + 4.0 * mw + bw * (2.0 + c->gll);
    }
    for (int64_t row = ROW_TRANS; row <= ROW_IDEAL; ++row)
        for (int64_t b = 0; b < grid; ++b)
            block_row(r, row)[b] +=
                (double)r->cnt[(CNT_TRANS + row) * grid + b];
    return REPLAY_OK;
}

/* undo every logged write, newest first */
static void undo(replay *r)
{
    const loop_ctx *c = r->c;
    for (int64_t i = r->ndlog - 1; i >= 0; --i)
        c->deg[r->dlog[i]] += 1;
    for (int64_t b = 0; b < c->grid; ++b) {
        const int64_t from = b * c->cap + r->blk[b].e_init;
        if (r->blk[b].saved)
            memcpy(c->buf + from, r->saved + from,
                   sizeof(int64_t) * (size_t)r->blk[b].saved);
    }
    c->gpu_count[0] = wrap_sub(c->gpu_count[0], r->gpu_added);
}

int repro_loop(const loop_ctx *c)
{
    replay r;
    int rc = REPLAY_NO_MEMORY;
    memset(&r, 0, sizeof r);
    r.c = c;
    r.nwarps = c->grid * c->warps;
    r.evcap = r.nwarps;
    r.dlogcap = c->nsz;
    r.blk = calloc((size_t)c->grid, sizeof *r.blk);
    r.ev = calloc((size_t)(4 * r.evcap), sizeof(int64_t));
    r.sums = calloc((size_t)(2 * r.nwarps + 7 * c->grid), sizeof(double));
    r.cnt = calloc((size_t)(CNT_ROWS * c->grid), sizeof(int64_t));
    r.mid_loads = calloc((size_t)r.nwarps, sizeof(int64_t));
    r.order = calloc((size_t)(2 * c->grid), sizeof(int64_t));
    r.worder = calloc((size_t)r.nwarps, sizeof(int64_t));
    r.stay = calloc((size_t)(2 * c->warps), sizeof(int64_t));
    r.window = calloc((size_t)(c->sm ? c->grid * c->scap + 1 : 1),
                      sizeof(int64_t));
    r.pref = calloc((size_t)(c->prefetch ? 2 * r.nwarps : 1), sizeof(int64_t));
    /* only the logged part of these is ever touched */
    r.saved = malloc(sizeof(int64_t) * (size_t)(c->bsz + 1));
    r.dlog = malloc(sizeof(int64_t) * (size_t)(c->nsz + 1));
    if (r.blk && r.ev && r.sums && r.cnt && r.mid_loads && r.order
        && r.worder && r.stay && r.window && r.pref && r.saved && r.dlog) {
        memset(c->acc, 0,
               sizeof(double) * (size_t)(2 * r.nwarps + ROW_COUNT * c->grid));
        rc = c->prefetch ? replay_prefetched(&r) : replay_drain(&r);
        if (rc == REPLAY_OK) {
            /* the per-block barrier counts, folded last */
            double *barriers = block_row(&r, ROW_BARRIERS);
            for (int64_t b = 0; b < c->grid; ++b)
                barriers[b] += (double)r.cnt[CNT_BARRIERS * c->grid + b];
            FOLD(c);
        } else {
            undo(&r);
        }
    }
    free(r.blk);
    free(r.ev);
    free(r.sums);
    free(r.cnt);
    free(r.mid_loads);
    free(r.order);
    free(r.worder);
    free(r.stay);
    free(r.window);
    free(r.pref);
    free(r.saved);
    free(r.dlog);
    return rc;
}
