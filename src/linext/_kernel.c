/* CFTP blocks in C, one function per Python loop in cftp.py.

   draw_block draws (pos, up, gate) as BitStream.uniform_int, next_bit and
   bernoulli do, reading bits least significant first from a little-endian
   byte buffer. bound_forward and bound_replay are _bound_forward and
   _bound_replay. The order is given as rows of w 64-bit words: bit b of row a
   is set iff a precedes b. set_run and set_step are _set_run and _set_step,
   on the off and ent rows of an exact.Support. Values, positions and slots
   are 1-based as in Python; arrays and support indices are 0-based. */

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

/* The keyed step of support index s at (i, c, g): entries off[s]..off[s+1]-1
   of ent hold one row (2 slot + d, land0, land1) per slot where s moves or
   descends (d = 1), sorted by slot; a descent swaps back under either gate
   bit. The coin is up iff d != c, and then *probes counts one and s moves if
   it has a row. */
static int32_t set_step(const int32_t *off, const int32_t *ent, int32_t s, int32_t i,
                        int c, int g, int64_t *probes) {
    for (int64_t e = off[s], end = off[s + 1]; e < end; e++) {
        int32_t slot = ent[3 * e] >> 1;
        if (slot < i)
            continue;
        if (slot > i)
            break;
        if ((ent[3 * e] & 1) == c)
            return s;
        ++*probes;
        return ent[3 * e + 1 + (g != 0)];
    }
    if (c)
        ++*probes;
    return s;
}

/* With s < 0, run all size support indices through the t-step block,
   keeping the distinct ones in live (size entries) and marking each step's
   with its number in stamp (size entries, zero on entry); once one is left,
   walk it through the rest. With s >= 0, walk s through steps k.. alone.
   Returns the index every start ends on, or -1 if not exactly one is left;
   *probes counts the coins that are up. */
int64_t set_run(int64_t size, const int32_t *off, const int32_t *ent, int64_t t,
                const int32_t *pos, const uint8_t *up, const uint8_t *gate, int64_t s,
                int64_t k, int32_t *live, int32_t *stamp, int64_t *probes) {
    int64_t comps = 0;
    if (s < 0) {
        int64_t m = size;
        for (int64_t a = 0; a < m; a++)
            live[a] = (int32_t)a;
        for (k = 0; k < t && m > 1; k++) {
            int64_t j = 0;
            for (int64_t a = 0; a < m; a++) {
                int32_t x = set_step(off, ent, live[a], pos[k], up[k], gate[k], &comps);
                if (stamp[x] != k + 1) {
                    stamp[x] = (int32_t)(k + 1);
                    live[j++] = x;
                }
            }
            m = j;
        }
        if (m != 1) {
            *probes = comps;
            return -1;
        }
        s = live[0];
    }
    for (; k < t; k++)
        s = set_step(off, ent, (int32_t)s, pos[k], up[k], gate[k], &comps);
    *probes = comps;
    return s;
}
