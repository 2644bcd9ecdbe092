/*
 * Native replay of the loop kernel's pending events: a line-for-line
 * translation of ``_flush`` in ``repro/core/fastsim.py``, which stays
 * the reference this file is tested against.
 *
 * One event is one warp's sweep of one frontier vertex (Alg. 3, Lines
 * 12-24): buffer read, bounds load, then 32-lane trips whose atomics
 * apply in lane order.  Charges are added in event order into zeroed
 * per-flush sums that are folded into the launch accumulators at the
 * end, exactly as the Python flush does; built without -ffast-math
 * and with -ffp-contract=off, every double operation is the one the
 * Python flush performs, so the sums are bit-identical.
 *
 * Every index read or written is checked against its array's length.
 * A non-zero return declines the launch (the caller raises
 * FallbackToReference); the staged arrays it wrote are then discarded.
 */

#include <stdint.h>
#include <string.h>

enum {
    FLUSH_OK = 0,
    FLUSH_READ_OVERFLOW = 1,   /* "loop buffer read overflow" */
    FLUSH_OUTSIDE_SLICE = 2,   /* "frontier vertex outside CSR slice" */
    FLUSH_APPEND_OVERFLOW = 3, /* "loop buffer overflow; reference raises" */
    FLUSH_OUT_OF_BOUNDS = 4,   /* "loop replay index out of bounds" */
};

/* Mirrors ``_FlushCtx`` in fastsim.py field for field. */
typedef struct {
    const int64_t *offs;
    int64_t osz;
    const int64_t *nbrs;
    int64_t nsz;
    int64_t *deg;
    int64_t dsz;
    int64_t *buf;
    int64_t bsz;
    int64_t *const *windows; /* per-block shared ``B``; unused unless sm */
    int64_t wlen;
    int64_t *blk_e;
    const int64_t *blk_e_init;
    int64_t grid;
    int64_t nwarps;
    int64_t k;
    int64_t cap;
    int64_t scap;
    int64_t sm;
    int64_t no_compaction;
    int64_t base;
    int64_t owned; /* 1: appends restricted to [lo, hi) */
    int64_t lo;
    int64_t hi;
    double gll;
    double gab;
    double scan_cost;
    /* launch accumulators: issued, path (per warp), then per block
     * mem_transactions, mem_accesses, mem_active_lanes,
     * mem_ideal_transactions, atomic_cycles, atomic_conflicts,
     * buffer_peak */
    double *acc[9];
    double *sums; /* per-flush sums: 2 * nwarps + 7 * grid doubles */
} flush_ctx;

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

int repro_flush(const flush_ctx *c, const int64_t *ev, int64_t nev)
{
    const int64_t grid = c->grid, nwarps = c->nwarps, cap = c->cap;
    const int64_t scap = c->sm ? c->scap : 0, k = c->k;
    const int64_t effective = cap + scap;
    double *wi = c->sums, *wp = wi + nwarps, *bt = wp + nwarps;
    double *ba = bt + grid, *bl = ba + grid, *bi = bl + grid;
    double *bat = bi + grid, *bcf = bat + grid, *bpk = bcf + grid;
    memset(c->sums, 0, sizeof(double) * (size_t)(2 * nwarps + 7 * grid));

    for (int64_t i = 0; i < nev; ++i) {
        const int64_t b = ev[i], g = ev[nev + i];
        int64_t slot = ev[2 * nev + i], v = ev[3 * nev + i];
        if (b < 0 || b >= grid || g < 0 || g >= nwarps)
            return FLUSH_OUT_OF_BOUNDS;
        /* -- the buffer read (value events carry their vertex) ------- */
        if (slot >= 0) {
            if (c->sm) {
                const int64_t e_init = c->blk_e_init[b];
                wi[g] += 5.0; /* smem_get(e_init) + charge(4) */
                wp[g] += 5.0;
                if (e_init <= slot && slot < e_init + scap) {
                    const int64_t w = slot - e_init;
                    wi[g] += 1.0; /* sload */
                    wp[g] += 1.0;
                    if (w >= c->wlen)
                        return FLUSH_OUT_OF_BOUNDS;
                    v = c->windows[b][w];
                    slot = -1;
                } else if (slot >= e_init) {
                    slot -= scap; /* Fig. 7: global slots above the window */
                }
                if (slot >= cap)
                    return FLUSH_READ_OVERFLOW;
            }
            if (slot >= 0) {
                const int64_t at = b * cap + slot;
                wi[g] += 1.0; /* gload of one word */
                wp[g] += 1.0 + c->gll;
                bt[b] += 1.0;
                ba[b] += 1.0;
                bl[b] += 1.0;
                bi[b] += 1.0;
                if (at < 0 || at >= c->bsz)
                    return FLUSH_OUT_OF_BOUNDS;
                v = c->buf[at];
            }
        }
        /* -- Line 13: bounds load (two consecutive offsets words) ---- */
        const int64_t rel = v - c->base;
        if (rel < 0 || rel + 1 >= c->osz)
            return FLUSH_OUTSIDE_SLICE;
        const int64_t s = c->offs[rel], e = c->offs[rel + 1];
        if (s < e && (s < 0 || e > c->nsz))
            return FLUSH_OUT_OF_BOUNDS;
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
                    return FLUSH_OUT_OF_BOUNDS;
            /* sync_warp + neighbors gload + deg gload + charge(4) */
            wi[g] += 7.0 + c->scan_cost;
            wp[g] += 7.0 + 2.0 * c->gll + c->scan_cost;
            /* every x in a trip is distinct (launch-level duplicate
             * guard), so in-loop writes never shadow a later read */
            for (int64_t j = 0; j < l; ++j) {
                const int64_t x = u[j], du = c->deg[x];
                if (du > k) {
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
            const int64_t loc = c->blk_e[b];
            if (loc + nw > effective)
                return FLUSH_APPEND_OVERFLOW;
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
            if (!c->sm) {
                const int64_t start = b * cap + loc;
                wi[g] += 1.0; /* gstore */
                wp[g] += 1.0;
                bt[b] += (double)((start + nw - 1) / 32 - start / 32 + 1);
                ba[b] += 1.0;
                bl[b] += (double)nw;
                bi[b] += 1.0;
                if (start < 0 || start + nw > c->bsz)
                    return FLUSH_OUT_OF_BOUNDS;
                memcpy(c->buf + start, newly, sizeof(int64_t) * (size_t)nw);
            } else {
                const int64_t e_init = c->blk_e_init[b];
                int64_t n_sh = e_init + scap - loc;
                wi[g] += 5.0; /* smem_get(e_init) + charge(4) */
                wp[g] += 5.0;
                n_sh = n_sh < 0 ? 0 : (n_sh > nw ? nw : n_sh);
                if (n_sh) {
                    const int64_t w = loc - e_init;
                    wi[g] += 1.0; /* sstore */
                    wp[g] += 1.0;
                    if (w < 0 || w + n_sh > c->wlen)
                        return FLUSH_OUT_OF_BOUNDS;
                    memcpy(c->windows[b] + w, newly,
                           sizeof(int64_t) * (size_t)n_sh);
                }
                const int64_t n_gl = nw - n_sh;
                if (n_gl) {
                    const int64_t top = loc > e_init + scap ? loc : e_init + scap;
                    const int64_t gl_start = b * cap + top - scap;
                    wi[g] += 1.0; /* gstore */
                    wp[g] += 1.0;
                    bt[b] += (double)((gl_start + n_gl - 1) / 32
                                      - gl_start / 32 + 1);
                    ba[b] += 1.0;
                    bl[b] += (double)n_gl;
                    bi[b] += 1.0;
                    if (gl_start < 0 || gl_start + n_gl > c->bsz)
                        return FLUSH_OUT_OF_BOUNDS;
                    memcpy(c->buf + gl_start, newly + n_sh,
                           sizeof(int64_t) * (size_t)n_gl);
                }
            }
            if ((double)(loc + nw) > bpk[b])
                bpk[b] = (double)(loc + nw);
            c->blk_e[b] = loc + nw;
        }
    }
    /* fold the per-flush sums into the launch accumulators */
    for (int64_t w = 0; w < nwarps; ++w) {
        c->acc[0][w] += wi[w];
        c->acc[1][w] += wp[w];
    }
    for (int64_t m = 0; m < 6; ++m)
        for (int64_t blk = 0; blk < grid; ++blk)
            c->acc[2 + m][blk] += bt[m * grid + blk];
    for (int64_t blk = 0; blk < grid; ++blk)
        if (bpk[blk] > c->acc[8][blk])
            c->acc[8][blk] = bpk[blk];
    return FLUSH_OK;
}
