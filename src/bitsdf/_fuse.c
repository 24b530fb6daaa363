/* One frame of bitmask fusion, split into bands of z planes.
 *
 * Built and loaded by bitsdf/_native.py; integrator._fuse_compiled fills the
 * one struct frame by field name through its ctypes mirror, _native.Frame,
 * and calls the one frame entry with it. The integrator's numpy code does
 * the same work where this cannot be built. The grid stores voxel (x, y, z)
 * of dims (nx, ny, nz) at word x + nx * (y + ny * z), x fastest, and the
 * pass gets that memory as the C-ordered (nz, ny, nx) arrays it is, and the
 * K^3 kernel, also stored x fastest, as (z, y, x). So a z plane of the grid
 * is nx * ny contiguous words, a row runs along x, and a band of z planes is
 * one contiguous range of words. The caller guarantees that every return's
 * K^3 block lies inside the grid.
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
 */
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

/* The one argument of bitsdf_fuse_frame, declared only here; _native.Frame
 * mirrors it field by field. The grid's (nz, ny, nx) arrays; the band cuts
 * 0 = cuts[0] < ... < cuts[bands] = nz; the (K, K, K) distance kernel and K;
 * the n returns' center voxels, sorted ascending (the grid does not depend
 * on the order), and shadow bins; the (bins, m) shadow table, one byte per
 * offset of the m flat offsets in `ball`; the hit cap, the count that marks
 * a voxel occupied, and nonzero to stamp rows with AVX-512F, which it may
 * be only where bitsdf_has_avx512 says so. */
struct frame {
    uint32_t *mask;
    uint8_t *hits, *sign;
    int64_t nz, ny, nx;
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
    uint8_t *restrict hits = f->hits, *restrict sign = f->sign;
    const int64_t *cflat = f->cflat, *ball = f->ball;
    const int64_t n = f->n, m = f->m, h_max = f->h_max, t_occ = f->t_occ;
    const int64_t p0 = f->cuts[band], p1 = f->cuts[band + 1];
    const int64_t sy = f->nx, sz = f->ny * f->nx, r = k / 2;
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
        uint32_t *plane = f->mask + z * sz;
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
 * two workers on them ran slower than on one allocation each. Sets written to -1 when
 * the bitmap cannot be allocated. The default kernel size gets its own
 * copy, whose row loops the compiler unrolls. */
static inline __attribute__((always_inline)) void
fuse_band(struct band *b, const stamp_fn stamp)
{
    const struct frame *f = b->f;
    uint64_t *seen = calloc((size_t)(f->ny * f->nx / 64 + 2), sizeof *seen);
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
