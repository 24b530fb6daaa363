/* One frame of bitmask fusion, split into bands of z planes, the two
 * steps of marching cubes: cell classification and mesh emission, and the
 * nearest-neighbour distances of evaluation.
 *
 * Built and loaded by bitsdf/_native.py. The grid entries bitsdf_fuse_frame,
 * bitsdf_classify_cells and bitsdf_emit_mesh each take one pointer to their
 * own struct (frame, classify, emit), declared only here, whose first member
 * is the struct grid they work on; _native mirrors every struct in ctypes
 * and fills struct grid in grid_view alone. metrics.nn_distances calls
 * bitsdf_nearest, which reads no grid, once per query set. The integrator's
 * and the mesher's numpy code and scipy's cKDTree do the same work where
 * this cannot be built. The grid stores voxel (x, y, z) of dims (nx, ny, nz)
 * at word x + nx * (y + ny * z), x fastest: struct grid's arrays are the
 * C-ordered (nz, ny, nx) arrays that memory holds, and the fusion pass reads
 * the K^3 kernel, also stored x fastest, as (z, y, x). So a z plane of the
 * grid is nx * ny contiguous words, a row runs along x, and a band of z
 * planes is one contiguous range of words. The caller guarantees that every
 * return's K^3 block lies inside the grid.
 *
 * One call fuses a whole frame: band 0 runs on the calling thread and each
 * other band on a thread that the call starts and joins. A band writes only
 * voxels of its own planes, so the bands need no locks, and it finds the
 * returns whose blocks reach them in the sorted returns itself.
 *
 * The mask stamp runs plane by plane: for each plane of its band it ANDs
 * the kernel's slice onto the block rows of every return whose block
 * reaches that plane, so the working set is one plane plus the kernel. A
 * row is stamped in chunks of at most 32 words, with AVX-512F or with a
 * loop the compiler vectorizes: the one frame entry takes the caller's
 * choice, made once per process, and both give the same words and changed
 * bits.
 *
 * The mesh entries are portable C. Cell classification reads
 * a slab plane by plane: it folds each voxel plane into one byte per cell
 * lower corner (the inside and unobserved bits of the cell's four corners
 * in that plane), and two such planes give the codes of the cells between
 * them. Mesh emission sets one bit per triangle edge's lattice-edge key in
 * a bitmap, reads each triangle corner's rank off the popcounts of the words
 * up to its key, which is np.unique's sorted order and inverse, and writes
 * one vertex per set bit. Its float operations are numpy's, one by one, and
 * the library is built with -ffp-contract=off so that none is fused into
 * a multiply-add with a different rounding.
 *
 * The nearest-neighbour search buckets the targets into a uniform grid of
 * cells over their bounding box (Bentley, Weide & Yao, ACM TOMS 1980) and
 * into blocks of those cells, each with the tight box of its targets. A
 * query reads the Chebyshev rings of cells around it, and a query that
 * they do not settle, far from every target, reads the blocks in an order
 * sorted once per call by a lower bound on their distance, skipping those
 * whose box is no nearer than its best, until no unread target can be
 * nearer. It computes each squared distance as scipy's cKDTree does, so
 * the minimum is the same bits, and it settles every query.
 */
#include <math.h>
#include <pthread.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* mark() reads the bitmap as little-endian 64-bit words. */
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ != __ORDER_LITTLE_ENDIAN__
#error "the changed-voxel bitmap needs a little-endian CPU"
#endif

#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
#define HAVE_AVX512 1
#include <immintrin.h>
#endif

/* Set the bits of voxels v .. v + 31 whose bit is set in `changed` in the
 * plane's bitmap (one bit per voxel, bit v & 7 of byte v >> 3), with one
 * unaligned 64-bit read-modify-write: 32 bits shifted by at most 7 fit, and
 * the bitmap's two spare words hold the bytes read past its last voxel. */
static inline void mark(uint64_t *seen, int64_t v, uint32_t changed)
{
    unsigned char *at = (unsigned char *)seen + (v >> 3);
    uint64_t w;
    memcpy(&w, at, sizeof w);
    w |= (uint64_t)changed << (v & 7);
    memcpy(at, &w, sizeof w);
}

typedef uint32_t (*stamp_fn)(uint32_t *, const uint32_t *, int64_t);

/* AND `len` <= 32 kernel words onto a row; bit x of the result is set when
 * word x changed. */
static inline __attribute__((always_inline)) uint32_t
stamp_portable(uint32_t *restrict row, const uint32_t *restrict kern, int64_t len)
{
    static const uint32_t bit[32] = {
        1u << 0, 1u << 1, 1u << 2, 1u << 3, 1u << 4, 1u << 5, 1u << 6, 1u << 7,
        1u << 8, 1u << 9, 1u << 10, 1u << 11, 1u << 12, 1u << 13, 1u << 14,
        1u << 15, 1u << 16, 1u << 17, 1u << 18, 1u << 19, 1u << 20, 1u << 21,
        1u << 22, 1u << 23, 1u << 24, 1u << 25, 1u << 26, 1u << 27, 1u << 28,
        1u << 29, 1u << 30, 1u << 31,
    };
    uint32_t changed = 0;
    for (int64_t x = 0; x < len; x++) {
        uint32_t old = row[x], now = old & kern[x];
        row[x] = now;
        changed |= bit[x] & -(uint32_t)(now != old);
    }
    return changed;
}

#ifdef HAVE_AVX512
/* The same with two masked 16-lane vectors: masked-off lanes are neither
 * read nor written, and only the lanes that change are stored. */
static inline __attribute__((always_inline, target("avx512f"))) uint32_t
stamp_avx512(uint32_t *row, const uint32_t *kern, int64_t len)
{
    const __mmask16 lo = len >= 16 ? 0xFFFF : (__mmask16)((1u << len) - 1);
    __m512i old = _mm512_maskz_loadu_epi32(lo, row);
    __m512i cut = _mm512_andnot_si512(_mm512_maskz_loadu_epi32(lo, kern), old);
    /* A lane changes when the AND clears one of its bits. */
    __mmask16 changed = _mm512_mask_test_epi32_mask(lo, cut, cut);
    _mm512_mask_storeu_epi32(row, changed, _mm512_xor_si512(old, cut));
    if (len <= 16)
        return changed;
    const __mmask16 hi = (__mmask16)((1u << (len - 16)) - 1);
    old = _mm512_maskz_loadu_epi32(hi, row + 16);
    cut = _mm512_andnot_si512(_mm512_maskz_loadu_epi32(hi, kern + 16), old);
    const __mmask16 changed_hi = _mm512_mask_test_epi32_mask(hi, cut, cut);
    _mm512_mask_storeu_epi32(row + 16, changed_hi, _mm512_xor_si512(old, cut));
    return (uint32_t)changed | (uint32_t)changed_hi << 16;
}
#endif

/* The grid that the grid entries read and fusion writes: its (nz, ny, nx)
 * arrays, its dims, its voxel size in meters and the world coordinates of
 * voxel 0's lower corner, by value. _native.Grid mirrors it. */
struct grid {
    uint32_t *mask;
    uint8_t *hits, *sign;
    int64_t nz, ny, nx;
    double voxel_size, origin[3];
};

/* The one argument of bitsdf_fuse_frame; _native.Frame mirrors it. The
 * grid; the band cuts 0 = cuts[0] < ... < cuts[bands] = nz; the (K, K, K)
 * distance kernel and K; the n returns' center voxels, sorted ascending (the
 * grid does not depend on the order), and shadow bins; the (bins, m) shadow
 * table, one byte per offset of the m flat offsets in `ball`; the hit cap,
 * the count that marks a voxel occupied, and nonzero to stamp rows with
 * AVX-512F, which it may be only where bitsdf_has_avx512 says so. */
struct frame {
    struct grid grid;
    const int64_t *cuts;
    int64_t bands;
    const uint32_t *kernel;
    int64_t k;
    const int64_t *cflat, *bins;
    int64_t n;
    const uint8_t *shadow;
    const int64_t *ball;
    int64_t m, h_max, t_occ, avx512;
};

/* Band `band` of frame f, with kernel size k: f->k, or a literal whose
 * row loops the compiler unrolls. */
static inline __attribute__((always_inline)) int64_t
fuse(const struct frame *f, uint64_t *restrict seen, int64_t band,
     const int64_t k, const stamp_fn stamp)
{
    uint8_t *restrict hits = f->grid.hits, *restrict sign = f->grid.sign;
    const int64_t *cflat = f->cflat, *ball = f->ball;
    const int64_t n = f->n, m = f->m, h_max = f->h_max, t_occ = f->t_occ;
    const int64_t p0 = f->cuts[band], p1 = f->cuts[band + 1];
    const int64_t sy = f->grid.nx, sz = f->grid.ny * f->grid.nx, r = k / 2;
    const int64_t lo = p0 * sz, hi = p1 * sz, words = sz / 64 + 2;
    int64_t written = 0;
    /* The returns whose block reaches plane z, with center planes
     * z - r .. z + r, are the sorted returns a .. b - 1. */
    int64_t first = 0;
    while (first < n && cflat[first] < (p0 - r) * sz)
        first++;
    int64_t a = first, b = first;

    for (int64_t z = p0; z < p1; z++) {
        while (a < n && cflat[a] < (z - r) * sz)
            a++;
        while (b < n && cflat[b] < (z + r + 1) * sz)
            b++;
        if (a == b)
            continue;
        uint32_t *plane = f->grid.mask + z * sz;
        int64_t c = z - r; /* center plane of return i */
        for (int64_t i = a; i < b; i++) {
            while (cflat[i] >= (c + 1) * sz)
                c++;
            /* The block's first word in the plane, and the kernel slice
             * that lies on this plane. */
            const int64_t corner = cflat[i] - c * sz - r * (sy + 1);
            const uint32_t *krow = f->kernel + (z - c + r) * k * k;
            for (int64_t y = 0; y < k; y++, krow += k) {
                const int64_t v = corner + y * sy;
                for (int64_t x0 = 0; x0 < k; x0 += 32) {
                    const int64_t len = k - x0 < 32 ? k - x0 : 32;
                    mark(seen, v + x0, stamp(plane + v + x0, krow + x0, len));
                }
            }
        }
        /* Count the plane's changed voxels and clear its bitmap. */
        for (int64_t w = 0; w < words; w++)
            written += __builtin_popcountll(seen[w]);
        memset(seen, 0, (size_t)words * sizeof *seen);
    }
    /* One hit per shadow voxel in the band, saturating at h_max, from the
     * returns first .. b - 1, whose blocks reach the band's planes. */
    for (int64_t i = first; i < b; i++) {
        /* Read once: the byte stores below could alias cflat[i]. */
        const int64_t center = cflat[i];
        const uint8_t *in_shadow = f->shadow + f->bins[i] * m;
        for (int64_t j = 0; j < m; j++) {
            const int64_t v = center + ball[j];
            if (!in_shadow[j] || v < lo || v >= hi)
                continue;
            int64_t h = hits[v];
            if (h < h_max)
                hits[v] = (uint8_t)++h;
            if (h >= t_occ)
                sign[v] = 0;
        }
    }
    return written;
}

struct band {
    const struct frame *f;
    int64_t i, written;
};

/* Band b->i of the frame. The worker that runs it allocates its own
 * one-plane bitmap, which no other core touches: bitmaps packed side by
 * side in one array share cache lines (and prefetches) at their ends, and
 * two workers on them ran slower than on one allocation each. Sets written
 * to -1 when the bitmap cannot be allocated. The default kernel size gets
 * its own copy, whose row loops the compiler unrolls. */
static inline __attribute__((always_inline)) void
fuse_band(struct band *b, const stamp_fn stamp)
{
    const struct frame *f = b->f;
    uint64_t *seen = calloc((size_t)(f->grid.ny * f->grid.nx / 64 + 2), sizeof *seen);
    if (seen == NULL) {
        b->written = -1;
        return;
    }
    b->written = f->k == 21 ? fuse(f, seen, b->i, 21, stamp)
                            : fuse(f, seen, b->i, f->k, stamp);
    free(seen);
}

static void *band_portable(void *b)
{
    fuse_band(b, stamp_portable);
    return NULL;
}

#ifdef HAVE_AVX512
/* Every AVX-512 CPU also has POPCNT, which counts the bitmap. */
__attribute__((target("avx512f,popcnt"))) static void *band_avx512(void *b)
{
    fuse_band(b, stamp_avx512);
    return NULL;
}
#endif

/* Run every band of the frame with `run`, band 0 on this thread and each
 * other band on a thread of its own, or on this thread when no thread can
 * be started for it. Returns the sum of the bands' changed-voxel counts,
 * or -1 when a band could not allocate its bitmap. */
static int64_t run_frame(const struct frame *f, void *(*run)(void *))
{
    struct band band[f->bands];
    pthread_t thread[f->bands];
    int started[f->bands];
    for (int64_t i = 0; i < f->bands; i++) {
        band[i] = (struct band){f, i, 0};
        started[i] = i > 0 && pthread_create(&thread[i], NULL, run, &band[i]) == 0;
    }
    for (int64_t i = 0; i < f->bands; i++) {
        if (!started[i])
            run(&band[i]);
    }
    int64_t written = 0;
    int failed = 0;
    for (int64_t i = 0; i < f->bands; i++) {
        if (started[i])
            pthread_join(thread[i], NULL);
        failed |= band[i].written < 0;
        written += band[i].written;
    }
    return failed ? -1 : written;
}

/* Fuse frame f on f->bands (at least 1) workers. Worker i owns the planes
 * cuts[i] <= z < cuts[i + 1] and fuses the returns whose block reaches
 * them, writing no voxel outside them:
 * - AND the K^3 distance kernel onto every word of each return's block;
 * - set the bit of each voxel whose mask this changes in the worker's
 *   bitmap of one plane (ny * nx / 64 + 2 words), counted and cleared
 *   after each plane;
 * - for each ball offset that the return's row of `shadow` marks, add one
 *   hit unless the count is at h_max, and mark the voxel occupied (sign 0)
 *   once its count reaches t_occ.
 * Rows are stamped with AVX-512F when f->avx512 is nonzero, and with a loop
 * the compiler vectorizes otherwise. Returns the number of distinct voxels
 * whose mask changed, or -1 when a worker could not allocate its bitmap. */
int64_t bitsdf_fuse_frame(const struct frame *f)
{
#ifdef HAVE_AVX512
    if (f->avx512)
        return run_frame(f, band_avx512);
#endif
    return run_frame(f, band_portable);
}

#ifdef HAVE_AVX512
/* 1 when this CPU can stamp rows with AVX-512F, else 0. */
int bitsdf_has_avx512(void)
{
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("popcnt");
}
#endif

/* Population count of a 32-bit word (any word, not only a run) without
 * the POPCNT instruction, in a form the compiler vectorizes. */
static inline uint32_t popcount32(uint32_t m)
{
    m -= (m >> 1) & 0x55555555u;
    m = (m & 0x33333333u) + ((m >> 2) & 0x33333333u);
    m = (m + (m >> 4)) & 0x0F0F0F0Fu;
    return (m * 0x01010101u) >> 24;
}

/* The same for a 64-bit word. */
static inline uint64_t popcount64(uint64_t m)
{
    m -= (m >> 1) & 0x5555555555555555ull;
    m = (m & 0x3333333333333333ull) + ((m >> 2) & 0x3333333333333333ull);
    m = (m + (m >> 4)) & 0x0F0F0F0F0F0F0F0Full;
    return (m * 0x0101010101010101ull) >> 56;
}

/* The quad of each cell lower corner (x, y) < (nx - 1, ny - 1) of voxel
 * plane z of grid g, into q: bit dx + 2 * dy set when corner
 * (x + dx, y + dy) is inside, bit 4 + dx + 2 * dy when it is unobserved
 * (mask all ones and no hits). A voxel is inside when its mask popcount d
 * is at least a on an occupied voxel (sign 0), or below b on any other. */
static void quad_plane(const struct grid *g, int64_t z, uint32_t a, uint32_t b,
                       uint8_t *restrict q)
{
    const int64_t ny = g->ny, nx = g->nx, v0 = z * ny * nx;
    const uint32_t *restrict mask = g->mask + v0;
    const uint8_t *restrict sign = g->sign + v0, *restrict hits = g->hits + v0;
    for (int64_t v = 0; v < ny * nx; v++) {
        const uint32_t d = popcount32(mask[v]);
        const uint8_t occupied = sign[v] == 0;
        const uint8_t inside = (occupied & (d >= a)) | (!occupied & (d < b));
        const uint8_t unobserved = (mask[v] == 0xFFFFFFFFu) & (hits[v] == 0);
        q[v] = inside | (uint8_t)(unobserved << 4);
    }
    /* In place: row y reads rows y and y + 1, and x reads x and x + 1,
     * neither of them written yet. */
    for (int64_t y = 0; y < ny - 1; y++) {
        uint8_t *row = q + y * nx;
        for (int64_t x = 0; x < nx - 1; x++)
            row[x] = row[x] | (uint8_t)(row[x + 1] << 1)
                   | (uint8_t)(row[x + nx] << 2) | (uint8_t)(row[x + nx + 1] << 3);
    }
}

/* The one argument of bitsdf_classify_cells; _native.Classify mirrors it. */
struct classify {
    struct grid grid;
    int64_t z0, z1, a, b;
    uint8_t *quads;
    int64_t *out;
};

/* Classify the marching-cubes cells of cell planes z0 <= z < z1 <= nz - 1
 * of the grid (cell plane z lies between voxel planes z and z + 1), with
 * the popcount thresholds a and b of quad_plane, and write each active
 * cell, in (z, y, x) order, to out as
 * (((x * ny + y) * nz + z) << 8) | code: its lower corner's x-major voxel
 * index and its code, whose bit dx + 2 * dy + 4 * dz is corner
 * (dx, dy, dz)'s inside bit. A cell is active when its eight corners are
 * observed and some but not all are inside. `quads` holds two planes of
 * ny * nx bytes, and `out` room for every cell of the planes,
 * (z1 - z0) * (ny - 1) * (nx - 1). Consecutive ranges, the first from
 * z0 = 0, share `quads`: a call leaves the quads of voxel plane z1 in its
 * first plane, and the call for the next range reads them there. Returns
 * the number of active cells. */
int64_t bitsdf_classify_cells(const struct classify *c)
{
    const int64_t nz = c->grid.nz, ny = c->grid.ny, nx = c->grid.nx, sz = ny * nx;
    const uint32_t a = (uint32_t)c->a, b = (uint32_t)c->b;
    uint8_t *lo = c->quads, *hi = c->quads + sz;
    int64_t n = 0;
    if (c->z0 == 0)
        quad_plane(&c->grid, 0, a, b, lo);
    for (int64_t z = c->z0; z < c->z1; z++) {
        quad_plane(&c->grid, z + 1, a, b, hi);
        /* Plane z's quads are read for the last time: overwrite each with
         * its cell's code where the cell is active (every corner observed,
         * code 1..254), else 0, and 0 past the last cell of a row. */
        for (int64_t y = 0; y < ny - 1; y++) {
            uint8_t *restrict q0 = lo + y * nx;
            const uint8_t *restrict q1 = hi + y * nx;
            for (int64_t x = 0; x < nx - 1; x++) {
                const uint8_t code = (q0[x] & 0x0F) | (uint8_t)(q1[x] << 4);
                const uint8_t active = ((q0[x] | q1[x]) & 0xF0) == 0
                                     && (uint8_t)(code - 1) < 254;
                q0[x] = active ? code : 0;
            }
            q0[nx - 1] = 0;
        }
        /* The active cells are few: skip 8 inactive ones at a time. */
        const int64_t len = (ny - 1) * nx;
        int64_t at = 0;
        for (; at + 8 <= len; at += 8) {
            uint64_t w;
            memcpy(&w, lo + at, sizeof w);
            if (w == 0)
                continue;
            for (int64_t i = at; i < at + 8; i++) {
                if (lo[i] != 0)
                    c->out[n++] = (((i % nx * ny + i / nx) * nz + z) << 8) | lo[i];
            }
        }
        for (; at < len; at++) {
            if (lo[at] != 0)
                c->out[n++] = (((at % nx * ny + at / nx) * nz + z) << 8) | lo[at];
        }
        uint8_t *t = lo;
        lo = hi;
        hi = t;
    }
    if (lo != c->quads)
        memcpy(c->quads, lo, (size_t)sz);
    return n;
}

/* The signed distance of voxel i, as grid.signed_distances computes it. */
static inline double signed_distance(const struct grid *g, int64_t i)
{
    const double sigma = g->sign[i] == 0 ? -1.0 : 1.0;
    return sigma * ((double)popcount32(g->mask[i]) * g->voxel_size);
}

/* The one argument of bitsdf_emit_mesh; _native.Emit mirrors it. */
struct emit {
    struct grid grid;
    const int64_t *cell;
    const uint8_t *code;
    int64_t m;
    const int32_t *tri;
    const int64_t *ntri, *edge;
    double iso;
    uint64_t *bits;
    int64_t words;
    int64_t *base, *triangles;
    double *vertices;
};

/* The mesh of the m active cells cell[0] < ... < cell[m - 1] of the grid,
 * each its lower corner's x-major voxel index ((x * ny + y) * nz + z) with
 * its binary corner code code[i], as bitsdf_classify_cells gives them. Cube
 * edge s of cell c has the lattice-edge key c * 3 + edge[s],
 * ((x * ny + y) * nz + z) * 3 + axis of the edge's lower end; tri is the
 * (256, 5, 3) case table of cube edges by code, triangle slot and corner,
 * and ntri the triangle count of each code. With lo = cell[0] * 3, the call:
 * - sets bit key - lo of each triangle edge in the zeroed bitmap `bits` of
 *   `words` words, which must cover every key, and writes each word's count
 *   of set bits before it to base;
 * - writes triangle slot j of every cell with more than j triangles, for
 *   j = 0..4 and the cells in order within a slot, to the (t, 3)
 *   `triangles` as the ranks of its edge keys among the set bits;
 * - writes the iso crossing on each set bit's edge, in bit order, to the
 *   (v, 3) `vertices` (room for the distinct triangle edges of each
 *   cell, summed over the cells): the ends' signed distances interpolated
 *   to `iso`, clipped to the edge, between the ends' voxel centers, in
 *   world coordinates.
 * That is np.unique of mesher._triangle_keys, its inverse, and
 * mesher._edge_vertices of the unique keys, with the same float
 * operations. Returns the number of vertices. */
int64_t bitsdf_emit_mesh(const struct emit *e)
{
    const struct grid *g = &e->grid;
    const int64_t nz = g->nz, ny = g->ny, nx = g->nx, lo = e->cell[0] * 3;
    for (int64_t i = 0; i < e->m; i++) {
        const int32_t *row = e->tri + e->code[i] * 15;
        for (int64_t j = 0; j < e->ntri[e->code[i]] * 3; j++) {
            const int64_t k = e->cell[i] * 3 + e->edge[row[j]] - lo;
            e->bits[k >> 6] |= 1ull << (k & 63);
        }
    }
    int64_t count = 0;
    for (int64_t w = 0; w < e->words; w++) {
        e->base[w] = count;
        count += (int64_t)popcount64(e->bits[w]);
    }
    int64_t n = 0;
    for (int64_t slot = 0; slot < 5; slot++) {
        for (int64_t i = 0; i < e->m; i++) {
            if (e->ntri[e->code[i]] <= slot)
                continue;
            const int32_t *row = e->tri + (e->code[i] * 5 + slot) * 3;
            for (int64_t j = 0; j < 3; j++) {
                const int64_t k = e->cell[i] * 3 + e->edge[row[j]] - lo;
                const uint64_t below = (1ull << (k & 63)) - 1;
                e->triangles[n++] = e->base[k >> 6] + (int64_t)popcount64(e->bits[k >> 6] & below);
            }
        }
    }
    const int64_t step[3] = {1, nx, nx * ny};
    double *p = e->vertices;
    for (int64_t w = 0; w < e->words; w++) {
        for (uint64_t b = e->bits[w]; b; b &= b - 1, p += 3) {
            const int64_t key = lo + w * 64 + __builtin_ctzll(b);
            const int64_t axis = key % 3, v = key / 3;
            const int64_t at[3] = {v / nz / ny, v / nz % ny, v % nz};
            const int64_t i1 = (at[2] * ny + at[1]) * nx + at[0], i2 = i1 + step[axis];
            const double v1 = signed_distance(g, i1), v2 = signed_distance(g, i2);
            const double denom = v2 - v1;
            double t = denom != 0.0 ? (e->iso - v1) / denom : 0.0;
            t = t > 0.0 ? t : 0.0;
            t = t < 1.0 ? t : 1.0;
            for (int64_t c = 0; c < 3; c++) {
                const double p1 = g->origin[c] + ((double)at[c] + 0.5) * g->voxel_size;
                const double p2 = g->origin[c] + ((double)(at[c] + (c == axis)) + 0.5) * g->voxel_size;
                p[c] = p1 + t * (p2 - p1);
            }
        }
    }
    return count;
}

/* Chebyshev rings of fine cells read around a query's cell before the
 * search goes on block by block. */
#define NEAREST_RINGS 2
/* Fine cells along each edge of a block, the search's coarser level. */
#define NEAREST_BLOCK 5
/* At most this many cells along an axis, so that a cell index computed in
 * floating point is within 1e-9 of its exact value (see bitsdf_nearest). */
#define NEAREST_AXIS_CELLS (1 << 20)

/* The number of cells of edge h over a box of extents e: along each axis,
 * the index of its far end plus one. */
static double nearest_cells(const double e[3], double h)
{
    double cells = 1.0;
    for (int k = 0; k < 3; k++)
        cells *= (double)((int64_t)(e[k] * (1.0 / h)) + 1);
    return cells;
}

/* The cell of coordinate x in [lo, lo + extent] along an axis of d cells. */
static inline int64_t nearest_index(double x, double lo, double inv, int64_t d)
{
    const int64_t i = (int64_t)((x - lo) * inv);
    return i < d - 1 ? i : d - 1;
}

/* The squared distance from q to t, (dx * dx + dy * dy) + dz * dz as
 * cKDTree sums it. */
static inline double nearest_distance(const double *restrict q,
                                      const double *restrict t)
{
    const double dx = q[0] - t[0], dy = q[1] - t[1], dz = q[2] - t[2];
    return (dx * dx + dy * dy) + dz * dz;
}

/* The least of best and the squared distances from q to targets i0 .. i1 - 1
 * of t. */
static inline double nearest_scan(const double *restrict t, int64_t i0,
                                  int64_t i1, const double *restrict q,
                                  double best)
{
    for (int64_t i = i0; i < i1; i++) {
        const double s = nearest_distance(q, t + 3 * i);
        best = s < best ? s : best;
    }
    return best;
}

/* Copies the n targets into sorted in the order of their cells, cell[i] <
 * cells, by a counting sort, so that cell c's are start[c] .. start[c + 1]
 * - 1. start has cells + 2 entries, zeroed: start[c + 2] counts cell c,
 * then start[c + 1] is its cursor, which ends at the start of cell c + 1. */
static void nearest_sort(const double *target, int64_t n, const int64_t *cell,
                         int64_t cells, int64_t *start, double *sorted)
{
    for (int64_t i = 0; i < n; i++)
        start[cell[i] + 2]++;
    for (int64_t c = 2; c < cells + 2; c++)
        start[c] += start[c - 1];
    for (int64_t i = 0; i < n; i++)
        memcpy(sorted + 3 * start[cell[i] + 1]++, target + 3 * i, 3 * sizeof *sorted);
}

/* A block offset o and the stop it gives a query: see bitsdf_nearest.
 * L(o) is the sum over the axes of max(|o_k| - 1, 0)^2. */
struct nearest_offset {
    double stop;
    int32_t o[3];
};

/* The blocks: dims d, the targets copied in block order with start as in
 * nearest_sort, each block's box (least x, y, z, then greatest; an empty
 * block's is +inf, -inf) and the offsets that reach every block from every
 * block, as nearest_offsets orders them. */
struct nearest_blocks {
    int64_t d[3];
    int64_t *start;
    double *sorted, *box;
    struct nearest_offset *offset;
    int64_t offsets;
};

/* Fills k->offset with the k->offsets offsets that reach every block from
 * every block, in the order of key min(L(o), k->offsets - 1) by a counting
 * sort, and sets each offset's stop from its key: the least L of its own
 * and every later offset. Returns 0 when its scratch cannot be allocated. */
static int nearest_offsets(struct nearest_blocks *k, double unit)
{
    const int64_t top = k->offsets - 1;
    int64_t *start = calloc((size_t)top + 3, sizeof *start);
    if (start == NULL)
        return 0;
    for (int pass = 0; pass < 2; pass++) {
        for (int64_t i = 0; i < k->offsets; i++) {
            int32_t o[3];
            int64_t l = 0, rest = i;
            for (int a = 0; a < 3; a++) {
                o[a] = (int32_t)(rest % (2 * k->d[a] - 1) - (k->d[a] - 1));
                rest /= 2 * k->d[a] - 1;
                const int64_t gap = llabs(o[a]) - 1;
                l += gap > 0 ? gap * gap : 0;
            }
            const int64_t key = l < top ? l : top;
            if (pass == 0)
                start[key + 2]++;
            else
                k->offset[start[key + 1]++] = (struct nearest_offset){
                    (double)key * NEAREST_BLOCK * NEAREST_BLOCK * (1.0 - 1e-6) * unit * unit,
                    {o[0], o[1], o[2]}};
        }
        for (int64_t c = 2; pass == 0 && c < top + 3; c++)
            start[c] += start[c - 1];
    }
    free(start);
    return 1;
}

/* The least of best and the squared distances from q to the targets of the
 * blocks, read at the offsets from block b, the block of q's projection,
 * until best is below an offset's stop. *at becomes the index into
 * k->sorted of each target that lowers best. */
static double nearest_by_blocks(const struct nearest_blocks *k, const double *q,
                                const int64_t b[3], double best, int64_t *at)
{
    for (int64_t i = 0; i < k->offsets && !(best < k->offset[i].stop); i++) {
        const int32_t *o = k->offset[i].o;
        int64_t c[3];
        int inside = 1;
        for (int a = 0; a < 3; a++) {
            c[a] = b[a] + o[a];
            inside &= c[a] >= 0 && c[a] < k->d[a];
        }
        if (!inside)
            continue;
        const int64_t blk = (c[2] * k->d[1] + c[1]) * k->d[0] + c[0];
        const double *box = k->box + 6 * blk;
        double g[3];
        for (int a = 0; a < 3; a++)
            g[a] = q[a] < box[a] ? box[a] - q[a] : q[a] > box[3 + a] ? q[a] - box[3 + a] : 0.0;
        /* No target of the block is nearer than its box (an empty block's
         * is infinitely far). */
        if (!((g[0] * g[0] + g[1] * g[1]) + g[2] * g[2] < best))
            continue;
        for (int64_t t = k->start[blk]; t < k->start[blk + 1]; t++) {
            const double s = nearest_distance(q, k->sorted + 3 * t);
            if (s < best) {
                best = s;
                *at = t;
            }
        }
    }
    return best;
}

/* The squared Euclidean distance from each of the m queries to its nearest
 * of the n >= 1 targets (both (count, 3) finite doubles, C order), into
 * out: the least (dx * dx + dy * dy) + dz * dz over the targets, the bits
 * whose square root cKDTree.query returns.
 *
 * The fine cells are cubes of edge h over the targets' bounding box, the
 * smallest h (to 64 bisection steps, and at least the box's longest extent
 * over NEAREST_AXIS_CELLS) that gives at most n cells: about one target per
 * cell, and one cell across an axis along which the box is flat. Blocks of
 * NEAREST_BLOCK^3 fine cells are the coarser level. The targets are copied
 * once in cell order and once in block order, each by a counting sort, so
 * that a row of cells along x is one run of them and so is a block. Every
 * bound below is taken from the projection p of the query onto the box.
 * Along each axis the query lies beyond p, or at it, from every target, so
 * a bound on the distance from p to a target also holds for the query,
 * even one far outside the box.
 *
 * A query first reads rings r = 0 .. NEAREST_RINGS of fine cells around
 * the cell of p. Once rings 0..r are read, every unread target lies r + 1
 * or more cells from that cell along some axis, so more than r * h from p
 * along it. The query is settled when its best squared distance is below
 * ((r - 1e-6) * h)^2, or when the rings read cover the grid.
 *
 * A query not settled so goes on block by block. A target in the block at
 * offset o from the block of p lies more than max(|o_k| - 1, 0) *
 * NEAREST_BLOCK * h from p along each axis k, so more than sqrt(L(o)) *
 * NEAREST_BLOCK * h from p and from the query, L(o) being the sum of the
 * squares of those integers. The offsets that reach every block are sorted
 * once per call by their key, min(L(o), number of offsets - 1), and the
 * query reads them in that order, skipping blocks off the grid and blocks
 * whose box is not nearer than its best so far, which hold no nearer
 * target. It is settled at the first offset whose stop, key *
 * NEAREST_BLOCK^2 * (1 - 1e-6) * h^2, is above its best, as every block
 * left has as large a key, or when the offsets run out. The search
 * starts from the distance to the target nearest the last query that went
 * on by blocks: a real candidate, and often the nearest, as consecutive
 * queries tend to be near each other.
 *
 * The box test is exact in floating point: each gap to a box is a
 * difference with a box bound, which is itself a target's coordinate, so
 * by monotone rounding no target's distance computes to less than its
 * box's. The computed index (x - lo) * (1 / h) of a coordinate is
 * monotone in it and within 1e-9 of (x - lo) / h, as it is below
 * NEAREST_AXIS_CELLS. So a target beyond ring r is more than (r - 2e-9) *
 * h from p along some axis, and one in a block at offset o more than
 * (sqrt(L(o)) * NEAREST_BLOCK - 4e-9) * h from p, whose square, for L(o) >=
 * 1, exceeds L(o) * NEAREST_BLOCK^2 * (1 - 2e-9) * h^2: the 1e-6 margins
 * cover these and the rounding of the computed distances. Where h is
 * below 2^-500 a bound's square could be subnormal and lose that margin,
 * so no query is settled by a bound: the rings cover the grid or the
 * offsets run out. The library needs no libm: no bound takes a square
 * root. The scratch is allocated and freed here. Returns 0, or m,
 * computing nothing, when the scratch cannot be allocated or the box's
 * extent overflows. */
int64_t bitsdf_nearest(const double *target, int64_t n, const double *query,
                       int64_t m, double *out)
{
    double lo[3], hi[3], e[3], longest = 0.0;
    for (int k = 0; k < 3; k++)
        lo[k] = hi[k] = target[k];
    for (int64_t i = 1; i < n; i++) {
        for (int k = 0; k < 3; k++) {
            const double x = target[3 * i + k];
            lo[k] = x < lo[k] ? x : lo[k];
            hi[k] = x > hi[k] ? x : hi[k];
        }
    }
    int finite = 1;
    for (int k = 0; k < 3; k++) {
        e[k] = hi[k] - lo[k];
        finite &= isfinite(e[k]) != 0;
        longest = e[k] > longest ? e[k] : longest;
    }
    if (!finite)
        return m;
    /* A box too small for its edge over NEAREST_AXIS_CELLS to be a normal
     * number is one cell. */
    double h = 1.0;
    if (longest >= 0x1p-1000) {
        double a = longest / NEAREST_AXIS_CELLS, b = 2.0 * longest;
        if (nearest_cells(e, a) <= (double)n) {
            b = a;
        } else {
            for (int step = 0; step < 64; step++) {
                const double mid = 0.5 * (a + b);
                if (nearest_cells(e, mid) <= (double)n)
                    b = mid;
                else
                    a = mid;
            }
        }
        h = b;
    }
    const double inv = 1.0 / h, unit = h >= 0x1p-500 ? h : 0.0;
    int64_t d[3];
    struct nearest_blocks bk = {.offsets = 1};
    for (int k = 0; k < 3; k++) {
        d[k] = (int64_t)(e[k] * inv) + 1;
        bk.d[k] = (d[k] + NEAREST_BLOCK - 1) / NEAREST_BLOCK;
        bk.offsets *= 2 * bk.d[k] - 1;
    }
    const int64_t cells = d[0] * d[1] * d[2], blocks = bk.d[0] * bk.d[1] * bk.d[2];
    int64_t *start = calloc((size_t)cells + 2, sizeof *start);
    double *sorted = malloc((size_t)n * 3 * sizeof *sorted);
    int64_t *cell = malloc((size_t)n * 2 * sizeof *cell);
    bk.start = calloc((size_t)blocks + 2, sizeof *bk.start);
    bk.sorted = malloc((size_t)n * 3 * sizeof *bk.sorted);
    bk.box = malloc((size_t)blocks * 6 * sizeof *bk.box);
    bk.offset = malloc((size_t)bk.offsets * sizeof *bk.offset);
    int64_t left = 0;
    if (start == NULL || sorted == NULL || cell == NULL || bk.start == NULL
        || bk.sorted == NULL || bk.box == NULL || bk.offset == NULL
        || !nearest_offsets(&bk, unit)) {
        left = m;
        goto done;
    }
    /* cell[i] is target i's fine cell, cell[n + i] its block. */
    for (int64_t i = 0; i < n; i++) {
        int64_t c[3];
        for (int k = 0; k < 3; k++)
            c[k] = nearest_index(target[3 * i + k], lo[k], inv, d[k]);
        cell[i] = (c[2] * d[1] + c[1]) * d[0] + c[0];
        cell[n + i] = (c[2] / NEAREST_BLOCK * bk.d[1] + c[1] / NEAREST_BLOCK) * bk.d[0]
                      + c[0] / NEAREST_BLOCK;
    }
    nearest_sort(target, n, cell, cells, start, sorted);
    nearest_sort(target, n, cell + n, blocks, bk.start, bk.sorted);
    for (int64_t b = 0; b < blocks; b++) {
        double *box = bk.box + 6 * b;
        for (int k = 0; k < 3; k++) {
            box[k] = INFINITY;
            box[3 + k] = -INFINITY;
        }
        for (int64_t i = bk.start[b]; i < bk.start[b + 1]; i++) {
            for (int k = 0; k < 3; k++) {
                const double x = bk.sorted[3 * i + k];
                box[k] = x < box[k] ? x : box[k];
                box[3 + k] = x > box[3 + k] ? x : box[3 + k];
            }
        }
    }
    int64_t last = -1; /* in bk.sorted, the nearest target of the last query settled by blocks */
    for (int64_t j = 0; j < m; j++) {
        const double *q = query + 3 * j;
        int64_t c[3];
        for (int k = 0; k < 3; k++) {
            const double p = q[k] < lo[k] ? lo[k] : q[k] > hi[k] ? hi[k] : q[k];
            c[k] = nearest_index(p, lo[k], inv, d[k]);
        }
        double best = INFINITY;
        int settled = 0;
        for (int64_t r = 0; r <= NEAREST_RINGS && !settled; r++) {
            int64_t a[3], b[3];
            int covers = 1;
            for (int k = 0; k < 3; k++) {
                a[k] = c[k] - r > 0 ? c[k] - r : 0;
                b[k] = c[k] + r < d[k] - 1 ? c[k] + r : d[k] - 1;
                covers &= c[k] - r <= 0 && c[k] + r >= d[k] - 1;
            }
            for (int64_t z = a[2]; z <= b[2]; z++) {
                for (int64_t y = a[1]; y <= b[1]; y++) {
                    const int64_t row = (z * d[1] + y) * d[0];
                    if (z == c[2] - r || z == c[2] + r || y == c[1] - r || y == c[1] + r) {
                        best = nearest_scan(sorted, start[row + a[0]],
                                            start[row + b[0] + 1], q, best);
                        continue;
                    }
                    if (c[0] - r >= 0)
                        best = nearest_scan(sorted, start[row + c[0] - r],
                                            start[row + c[0] - r + 1], q, best);
                    if (c[0] + r < d[0])
                        best = nearest_scan(sorted, start[row + c[0] + r],
                                            start[row + c[0] + r + 1], q, best);
                }
            }
            const double bound = ((double)r - 1e-6) * unit;
            settled = covers || (r > 0 && best < bound * bound);
        }
        if (!settled) {
            int64_t b[3], at = -1;
            for (int k = 0; k < 3; k++)
                b[k] = c[k] / NEAREST_BLOCK;
            if (last >= 0) {
                const double s = nearest_distance(q, bk.sorted + 3 * last);
                if (s < best) {
                    best = s;
                    at = last;
                }
            }
            best = nearest_by_blocks(&bk, q, b, best, &at);
            last = at >= 0 ? at : last;
        }
        out[j] = best;
    }
done:
    free(start);
    free(sorted);
    free(cell);
    free(bk.start);
    free(bk.sorted);
    free(bk.box);
    free(bk.offset);
    return left;
}
