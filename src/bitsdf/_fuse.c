/* One frame of bitmask fusion in one pass over its returns.
 *
 * Built and loaded by bitsdf/_native.py; integrator._fuse prepares the
 * arguments, and its numpy code does the same work where this cannot be
 * built. Arrays are C-ordered: voxel (x, y, z) of a grid with dims
 * (nx, ny, nz) is word x * ny * nz + y * nz + z, so a band of x planes is
 * one contiguous range of words. The caller guarantees that every return's
 * K^3 block lies inside the grid.
 */
#include <stdint.h>

/* Set the bits of voxels v .. v + 31 whose bit is set in `changed` in the
 * frame's bitmap (one bit per voxel, in 64-bit words). */
static inline void mark(uint64_t *seen, int64_t v, uint32_t changed)
{
    uint64_t *w = seen + (v >> 6);
    unsigned s = (unsigned)(v & 63);
    w[0] |= (uint64_t)changed << s;
    w[1] |= s > 32 ? (uint64_t)changed >> (64 - s) : 0;
}

static inline __attribute__((always_inline)) int64_t
fuse(uint32_t *restrict mask, uint8_t *restrict hits, uint8_t *restrict sign,
     uint64_t *restrict seen, const int64_t *dims, int64_t p0, int64_t p1,
     const uint32_t *restrict kernel, const int64_t k,
     const int64_t *cflat, const int64_t *bins, int64_t n,
     const uint8_t *shadow, const int64_t *ball, int64_t m,
     int64_t h_max, int64_t t_occ)
{
    const int64_t sy = dims[2], sx = dims[1] * dims[2], r = k / 2;
    /* The band's voxels are lo .. hi - 1; its bitmap starts at voxel lo. */
    const int64_t lo = p0 * sx, hi = p1 * sx, words = (p1 - p0) * sx / 64 + 2;
    uint32_t bit[32];
    int64_t written = 0;

    for (int z = 0; z < 32; z++)
        bit[z] = (uint32_t)1 << z;
    for (int64_t i = 0; i < n; i++) {
        /* AND every word of the block's planes in the band, and mark the
         * words it changed. */
        const int64_t corner = cflat[i] - r * (sx + sy + 1);
        const int64_t plane = corner / sx;
        const int64_t x0 = p0 > plane ? p0 - plane : 0;
        const int64_t x1 = p1 - plane < k ? p1 - plane : k;
        const uint32_t *krow = kernel + x0 * k * k;
        for (int64_t x = x0; x < x1; x++) {
            for (int64_t y = 0; y < k; y++, krow += k) {
                const int64_t v = corner + x * sx + y * sy;
                for (int64_t z0 = 0; z0 < k; z0 += 32) {
                    const int64_t len = k - z0 < 32 ? k - z0 : 32;
                    uint32_t *row = mask + v + z0;
                    const uint32_t *kz = krow + z0;
                    uint32_t changed = 0;
                    for (int64_t z = 0; z < len; z++) {
                        uint32_t old = row[z], now = old & kz[z];
                        row[z] = now;
                        changed |= bit[z] & -(uint32_t)(now != old);
                    }
                    mark(seen, v + z0 - lo, changed);
                }
            }
        }
        /* One hit per shadow voxel in the band, saturating at h_max. */
        const uint8_t *in_shadow = shadow + bins[i] * m;
        for (int64_t j = 0; j < m; j++) {
            const int64_t v = cflat[i] + ball[j];
            if (!in_shadow[j] || v < lo || v >= hi)
                continue;
            int64_t h = hits[v];
            if (h < h_max)
                hits[v] = (uint8_t)++h;
            if (h >= t_occ)
                sign[v] = 0;
        }
    }
    for (int64_t w = 0; w < words; w++)
        written += __builtin_popcountll(seen[w]);
    return written;
}

/* Fuse n returns with center voxels cflat (sorted for locality; the grid
 * does not depend on the order) and shadow bins `bins` into the band of
 * planes p0 <= x < p1 (0 and nx for the whole grid), writing no voxel
 * outside it, so calls on disjoint bands can run at the same time:
 *
 * - AND the K^3 distance kernel onto every word of each return's block;
 * - set the bit of each voxel whose mask this changes in `seen`, zeroed by
 *   the caller ((p1 - p0) * ny * nz / 64 + 2 words, bit 0 for the band's
 *   first voxel);
 * - for each of the m flat offsets in `ball` that row bins[i] of `shadow`
 *   (one byte per offset) marks, add one hit unless the count is at h_max,
 *   and mark the voxel occupied (sign 0) once its count reaches t_occ.
 *
 * Returns the number of distinct voxels of the band whose mask changed. */
int64_t bitsdf_fuse(uint32_t *mask, uint8_t *hits, uint8_t *sign, uint64_t *seen,
                    const int64_t *dims, int64_t p0, int64_t p1,
                    const uint32_t *kernel, int64_t k,
                    const int64_t *cflat, const int64_t *bins, int64_t n,
                    const uint8_t *shadow, const int64_t *ball, int64_t m,
                    int64_t h_max, int64_t t_occ)
{
    /* The default kernel size gets its own copy, whose row loops the
     * compiler unrolls. */
    if (k == 21)
        return fuse(mask, hits, sign, seen, dims, p0, p1, kernel, 21, cflat,
                    bins, n, shadow, ball, m, h_max, t_occ);
    return fuse(mask, hits, sign, seen, dims, p0, p1, kernel, k, cflat, bins,
                n, shadow, ball, m, h_max, t_occ);
}
