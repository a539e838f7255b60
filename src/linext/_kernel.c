/* CFTP blocks in C, one function per Python loop in cftp.py.

   draw_block draws (pos, up, gate) as BitStream.uniform_int, next_bit and
   bernoulli do, reading bits least significant first from a little-endian
   byte buffer. bound_forward and bound_replay are _bound_forward and
   _bound_replay. The order is given as rows of w 64-bit words: bit b of row a
   is set iff a precedes b. Values, positions and slots are 1-based as in
   Python; arrays are 0-based. */

#include <stdint.h>

typedef struct {
    const uint8_t *buf;
    int64_t len, at;
} bits_t;

static int bit(bits_t *s) {
    int64_t p = s->at++;
    return (s->buf[p >> 3] >> (p & 7)) & 1;
}

/* uniform_int(m): 1..m, or 0 when the buffer runs out. */
static int64_t uniform(bits_t *s, int64_t m) {
    int64_t v = 1, c = 0;
    if (m == 1)
        return 1;
    for (;;) {
        if (s->at == s->len)
            return 0;
        v += v;
        c += c + bit(s);
        if (v >= m) {
            if (c < m)
                return c + 1;
            v -= m;
            c -= m;
        }
    }
}

/* bernoulli(x) for 0 < x < 1: 0 or 1, or -1 when the buffer runs out. */
static int coin(bits_t *s, double x) {
    for (;;) {
        if (s->at == s->len)
            return -1;
        if (x >= 0.5) {
            if (!bit(s))
                return 1;
            x = x + x - 1.0;
            if (x == 0.0)
                return 0;
        } else {
            if (bit(s))
                return 0;
            x = x + x;
        }
    }
}

/* Fill steps k..t-1 from the nbits bits of buf. Stops early, at the start of
   the step that would read past the buffer. Returns the next step to draw;
   *used is the bits read by the steps drawn. */
int64_t draw_block(const uint8_t *buf, int64_t nbits, int64_t *used, int64_t m,
                   double pen, int64_t k, int64_t t, int32_t *pos, uint8_t *up,
                   uint8_t *gate) {
    bits_t s = {buf, nbits, 0};
    for (; k < t; k++) {
        int64_t start = s.at;
        int64_t i = uniform(&s, m);
        int g = 1;
        if (!i || s.at == s.len) {
            s.at = start;
            break;
        }
        up[k] = bit(&s);
        if (pen != 1.0 && (g = coin(&s, pen)) < 0) {
            s.at = start;
            break;
        }
        pos[k] = (int32_t)i;
        gate[k] = (uint8_t)g;
    }
    *used = s.at;
    return k;
}

static int precedes(const uint64_t *rows, int64_t w, int32_t a, int32_t b) {
    return (rows[a * w + (b >> 6)] >> (b & 63)) & 1;
}

/* Run the bound from the initial bound through t steps on its own coins,
   recording right[k] = B(i + 1) before each step. Leaves the bound in bnd
   (0 = wildcard) and returns how many values it holds; *probes counts the
   order tests. */
int64_t bound_forward(int64_t n, int64_t cap, const uint64_t *rows, int64_t w,
                      int64_t t, const int32_t *pos, const uint8_t *up,
                      const uint8_t *gate, int32_t *right, int32_t *bnd,
                      int64_t *probes) {
    int64_t placed = 1, comps = 0;
    for (int64_t j = 0; j < n - 1; j++)
        bnd[j] = 0;
    bnd[n - 1] = 1;
    for (int64_t k = 0; k < t; k++) {
        int32_t i = pos[k], u = bnd[i - 1], v = bnd[i];
        right[k] = v;
        if (!up[k])
            continue;
        if (u && v) {
            comps++;
            if (precedes(rows, w, u, v))
                continue;
        }
        if (v && (v - i > cap || (v - i == cap && !gate[k])))
            continue;
        bnd[i - 1] = v;
        bnd[i] = u;
        if (!bnd[n - 1])
            bnd[n - 1] = (int32_t)++placed;
    }
    *probes = comps;
    return placed;
}

/* Run the state sig through a recorded block in place, its coin flipped
   where its left element is the recorded entry. Returns the probes made. */
int64_t bound_replay(int64_t cap, const uint64_t *rows, int64_t w, int64_t t,
                     const int32_t *pos, const uint8_t *up, const uint8_t *gate,
                     const int32_t *right, int32_t *sig) {
    int64_t comps = 0;
    for (int64_t k = 0; k < t; k++) {
        int32_t i = pos[k], a = sig[i - 1], b = sig[i];
        if (!(up[k] ^ (a == right[k])))
            continue;
        comps++;
        if (precedes(rows, w, a, b) || b - i > cap || (b - i == cap && !gate[k]))
            continue;
        sig[i - 1] = b;
        sig[i] = a;
    }
    return comps;
}
