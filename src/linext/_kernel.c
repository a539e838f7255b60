/* CFTP draws and the ideal DP's layer pass in C, one function per Python
   loop in cftp.py and exact.py; native.py calls draw and the dp_ functions.

   draw runs a whole bounding-chain draw, generate's loop: blocks twice as
   long further into the past until one is constant, then the replay of its
   value through the others, deepest first. It makes the stream's bits
   itself, as getrandbits(256) does (mt_words), in batches ahead of its
   reads; at the end it puts the generator back and makes again only the
   words it read from, so it leaves the generator where the Python draws do.

   block draws a block's steps (pos, up, gate) as BitStream.uniform_int,
   next_bit and bernoulli do, reading bits least significant first, and runs
   the bound through each step as it is decoded: it is
   _bound_forward(_draw_block(...)). uniform, bit and coin read the bits one
   at a time; a block given step_table's table instead looks up the step its
   next TABLE_BITS bits start, with the bits it reads, and leaves to those
   three only the steps that read more. Either way a step reads the same
   bits. A step is kept as one uint32, pos | up << 16 | gate << 17, next to
   the bound's right entry before it, 8 B a step. bound_replay is
   _bound_replay. The order is given as rows of w 64-bit words: bit b of row
   a is set iff a precedes b. Values, positions and slots are 1-based as in
   Python; arrays are 0-based. */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define MT_N 624
#define MT_M 397
#define CHUNK 256  /* most words made at once: 8 KiB */

/* Twist the 624 words of the MT19937 generator mt, as random.Random does
   when its index reaches 624. */
static void mt_twist(uint32_t *mt) {
    int k = 0;
    uint32_t y;
#define MT_MIX(a, b, c) (y = (mt[a] & 0x80000000u) | (mt[b] & 0x7fffffffu), \
                         mt[a] = mt[c] ^ (y >> 1) ^ (-(y & 1u) & 0x9908b0dfu))
    for (; k < MT_N - MT_M; k++)
        MT_MIX(k, k + 1, k + MT_M);
    for (; k < MT_N - 1; k++)
        MT_MIX(k, k + 1, k + MT_M - MT_N);
    MT_MIX(MT_N - 1, 0, MT_M - 1);
#undef MT_MIX
    mt[MT_N] = 0;
}

/* Write words 256-bit words of the MT19937 generator mt, its 624 words then
   the index, into buf from bit at on, each what random.Random's
   getrandbits(256) gives: 8 tempered outputs, least significant first. The
   bits of buf from at on must be zero. Returns the bit after the last
   word. */
int64_t mt_words(uint32_t *mt, int64_t words, uint8_t *buf, int64_t at) {
    uint8_t *p = buf + (at >> 3);
    int s = at & 7;
    uint64_t acc = p[0];  /* the s bits not yet written, from p on */
    for (int64_t left = 8 * words; left > 0;) {
        if (mt[MT_N] >= MT_N)
            mt_twist(mt);
        const uint32_t *x = mt + mt[MT_N];
        int64_t run = left < MT_N - mt[MT_N] ? left : MT_N - mt[MT_N];
        for (int64_t j = 0; j < run; j++) {
            uint32_t y = x[j];
            y ^= y >> 11;
            y ^= (y << 7) & 0x9d2c5680u;
            y ^= (y << 15) & 0xefc60000u;
            acc |= (uint64_t)(y ^ (y >> 18)) << s;
            p[0] = (uint8_t)acc;
            p[1] = (uint8_t)(acc >> 8);
            p[2] = (uint8_t)(acc >> 16);
            p[3] = (uint8_t)(acc >> 24);
            p += 4;
            acc >>= 32;
        }
        mt[MT_N] += (uint32_t)run;
        left -= run;
    }
    if (s)
        p[0] = (uint8_t)acc;
    return at + 256 * words;
}

/* A draw's bits: the stream's buffered bits, then words of its generator mt
   made ahead of the reads. */
typedef struct {
    uint32_t *mt;
    uint32_t saved[MT_N + 1];  /* mt before the words from base on were made */
    int64_t at, end, base;     /* the next bit, the end of the bits, the first bit of those words */
    int64_t batch, moved;      /* the words fill makes next, the bits it moved out */
    uint8_t buf[32 * CHUNK + 48];  /* 9 B kept by fill, a batch, and hand_back's reach past it */
} feed_t;

/* Make the next batch of words, 1, 2, 4, ... up to CHUNK of them, once
   fewer than 64 bits are left to read: those bits move to the front, with
   at's place in its byte, and the words follow them. The last word before
   base has then been read from, and so has every earlier one. Small first
   batches spare a small draw 256 unread words: 14.9 us a draw on
   antichain(6) at beta 6 against 19.3 with batches of 256 (x86, CPU time). */
static void fill(feed_t *f) {
    int64_t o = f->at >> 3, keep = ((f->end + 7) >> 3) - o;
    memmove(f->buf, f->buf + o, (size_t)keep);
    memset(f->buf + keep, 0, 32 * (size_t)f->batch);
    f->moved += 8 * o;
    f->at -= 8 * o;
    f->base = f->end - 8 * o;
    memcpy(f->saved, f->mt, sizeof f->saved);
    f->end = mt_words(f->mt, f->batch, f->buf, f->base);
    f->batch = f->batch < CHUNK ? 2 * f->batch : CHUNK;
}

/* Leave mt, word and *avail as the stream would be after reading the bits
   read, taking each word only when reading from it: mt is put back to saved,
   even when no bit from base on was read (the table path fills before its
   load), and the words from base on that were read from are made again,
   over themselves, which mt_words's OR leaves as they are; word gets the
   bits from at to the end of the last of them. Returns the bits read. */
static int64_t hand_back(feed_t *f, uint8_t *word, int64_t *avail) {
    int64_t end = f->base, o = f->at >> 3, s = f->at & 7;
    memcpy(f->mt, f->saved, sizeof f->saved);
    if (f->at > f->base)
        end = mt_words(f->mt, (f->at - f->base + 255) / 256, f->buf, f->base);
    *avail = end - f->at;
    memset(word, 0, 32);
    for (int64_t j = 0; j < (*avail + 7) >> 3; j++)
        word[j] = (uint8_t)((f->buf[o + j] | f->buf[o + j + 1] << 8) >> s);
    if (*avail & 7)
        word[*avail >> 3] &= (uint8_t)((1u << (*avail & 7)) - 1);
    return f->moved + f->at;
}

static int bit(feed_t *f) {
    if (f->at == f->end)
        fill(f);
    int64_t p = f->at++;
    return (f->buf[p >> 3] >> (p & 7)) & 1;
}

/* uniform_int(m): 1..m. */
static int64_t uniform(feed_t *f, int64_t m) {
    int64_t v = 1, c = 0;
    if (m == 1)
        return 1;
    for (;;) {
        v += v;
        c += c + bit(f);
        if (v >= m) {
            if (c < m)
                return c + 1;
            v -= m;
            c -= m;
        }
    }
}

/* bernoulli(x) for 0 < x < 1: 0 or 1. */
static int coin(feed_t *f, double x) {
    for (;;) {
        if (x >= 0.5) {
            if (!bit(f))
                return 1;
            x = x + x - 1.0;
            if (x == 0.0)
                return 0;
        } else {
            if (bit(f))
                return 0;
            x = x + x;
        }
    }
}

#define TABLE_BITS 12
#define ENTRIES (1 << TABLE_BITS)

typedef struct {
    uint32_t *table;
    int64_t m, filled;
    int coins;  /* the outcomes of bernoulli(pen) within TABLE_BITS bits, shortest first */
    uint32_t coin_bits[TABLE_BITS], coin_len[TABLE_BITS], coin_gate[TABLE_BITS];
} build_t;

/* The steps whose uniform_int(m) reads the d bits prefix and draws i: each
   up bit, then each outcome of the coin, fills the entries that begin with
   its bits. */
static void put_steps(build_t *B, uint32_t prefix, int d, int64_t i) {
    for (uint32_t u = 0; u < 2; u++) {
        for (int j = 0; j < B->coins && d + 1 + (int)B->coin_len[j] <= TABLE_BITS; j++) {
            uint32_t b = (uint32_t)d + 1 + B->coin_len[j];
            uint32_t e = (uint32_t)i | u << 16 | B->coin_gate[j] << 17 | b << 24;
            B->filled += ENTRIES >> b;
            for (uint32_t x = prefix | u << d | B->coin_bits[j] << (d + 1);
                 x < ENTRIES; x += 1u << b)
                B->table[x] = e;
        }
    }
}

/* uniform's outcome tree below the node of d bits prefix, where it holds
   (v, c). */
static void walk(build_t *B, int64_t v, int64_t c, uint32_t prefix, int d) {
    if (d + 2 > TABLE_BITS)
        return;  /* a step read here reads more than TABLE_BITS bits */
    for (uint32_t b = 0; b < 2; b++) {
        int64_t v2 = v + v, c2 = c + c + b;
        if (v2 >= B->m) {
            if (c2 < B->m) {
                put_steps(B, prefix | b << d, d + 1, c2 + 1);
                continue;
            }
            v2 -= B->m;
            c2 -= B->m;
        }
        walk(B, v2, c2, prefix | b << d, d + 1);
    }
}

/* Write the step table of (m, pen) for block: entry x is the step that
   the TABLE_BITS bits of x, least significant first, start, as
   pos | up << 16 | gate << 17 | bits << 24, bits being the bits it reads, or
   0 when it reads more. The serial decoder's outcome tree is walked once,
   each leaf of b bits filling its entries at stride 2^b. Returns the entries
   filled. */
static int64_t step_table(int64_t m, double pen, uint32_t *table) {
    build_t B = {table, m, 0, 0, {0}, {0}, {0}};
    memset(table, 0, ENTRIES * sizeof *table);
    if (pen == 1.0) {
        B.coin_gate[B.coins++] = 1;
    } else {
        uint32_t bits = 0;
        double x = pen;
        for (uint32_t e = 1; e < TABLE_BITS; e++) {
            if (x >= 0.5) {
                B.coin_bits[B.coins] = bits;
                B.coin_len[B.coins] = e;
                B.coin_gate[B.coins++] = 1;
                bits |= 1u << (e - 1);
                x = x + x - 1.0;
                if (x == 0.0) {
                    B.coin_bits[B.coins] = bits;
                    B.coin_len[B.coins++] = e;
                    break;
                }
            } else {
                B.coin_bits[B.coins] = bits | 1u << (e - 1);
                B.coin_len[B.coins++] = e;
                x = x + x;
            }
        }
    }
    if (m == 1)
        put_steps(&B, 0, 0, 1);
    else
        walk(&B, 1, 0, 0, 0);
    return B.filled;
}

static int64_t bit_length(uint64_t x) {
    return x ? 64 - __builtin_clzll(x) : 0;
}

static int precedes(const uint64_t *rows, int64_t w, int32_t a, int32_t b) {
    return (rows[a * w + (b >> 6)] >> (b & 63)) & 1;
}

/* Decode a block's t steps from the feed, by table lookup when table is not
   NULL, and run the bound from the initial one (0 = wildcard) through each
   step as it is decoded, on the step's own coins. Step k is stored as
   step[2k] = pos | up << 16 | gate << 17, a table entry without its bits,
   and step[2k + 1] = B(pos + 1) before the step. Adds the order tests to
   *comps; returns 1 when the block is constant (no wildcard is left in bnd).
   The caller keeps n - 1 < 2^16, so pos fits its 16 bits; a draw's first
   block, of 2 n^2 steps, fits MAX_STEPS only while n <= 7071. The bound's
   step is branch-free: the swap is a mask, and only a swap into the last
   slot can leave a wildcard there. */
static int block(feed_t *f, int64_t n, double pen, const uint32_t *table, int64_t t, int64_t cap,
                 const uint64_t *rows, int64_t w, uint32_t *step, int32_t *bnd, int64_t *comps) {
    uint64_t reg = 0;  /* with table: the next have bits, from f->at on */
    int64_t have = 0, placed = 1;
    memset(bnd, 0, (size_t)(n - 1) * sizeof *bnd);
    bnd[n - 1] = 1;
    for (int64_t k = 0; k < t; k++) {
        uint32_t e = 0;
        if (table) {
            if (have < TABLE_BITS) {
                if (f->end - f->at < 64)
                    fill(f);
                memcpy(&reg, f->buf + (f->at >> 3), 8);
#if __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
                reg = __builtin_bswap64(reg);
#endif
                reg >>= f->at & 7;
                have = 64 - (f->at & 7);
            }
            e = table[reg & (ENTRIES - 1)];
            f->at += e >> 24;
            reg >>= e >> 24;
            have = e ? have - (e >> 24) : 0;  /* bits read one at a time below pass reg by */
        }
        if (!e) {
            e = (uint32_t)uniform(f, n - 1);
            e |= (uint32_t)bit(f) << 16;
            e |= (uint32_t)(pen == 1.0 || coin(f, pen)) << 17;
        }
        e &= 0x3ffff;
        int32_t i = e & 0xffff, u = bnd[i - 1], v = bnd[i], x = v - i;
        int both = (u != 0) & (v != 0);
        int keep = (both & precedes(rows, w, u, v))
                   | ((v != 0) & ((x > cap) | ((x == cap) & !(e >> 17))));
        int32_t d = (u ^ v) & -(int32_t)((e >> 16 & 1) & !keep);
        step[2 * k] = e;
        step[2 * k + 1] = (uint32_t)v;
        int empty = (i == n - 1) & (u == 0) & (d != 0);  /* a wildcard reached the last slot */
        placed += empty;
        bnd[i - 1] = u ^ d;
        bnd[i] = (v ^ d) | ((int32_t)placed & -empty);
        *comps += (e >> 16 & 1) & both;
    }
    return placed == n;
}

/* Run the state sig through the t recorded steps of a block in place, its
   coin flipped where its left element is the recorded entry; branch-free as
   block. Returns the probes made. */
static int64_t bound_replay(int64_t cap, const uint64_t *rows, int64_t w, int64_t t,
                            const uint32_t *step, int32_t *sig) {
    int64_t comps = 0;
    for (int64_t k = 0; k < t; k++) {
        uint32_t e = step[2 * k];
        int32_t i = e & 0xffff, a = sig[i - 1], b = sig[i], x = b - i;
        int c1 = (e >> 16 & 1) ^ (a == (int32_t)step[2 * k + 1]);
        int keep = precedes(rows, w, a, b) | (x > cap) | ((x == cap) & !(e >> 17));
        int32_t d = (a ^ b) & -(int32_t)(c1 & !keep);
        sig[i - 1] = a ^ d;
        sig[i] = b ^ d;
        comps += c1;
    }
    return comps;
}

/* One bounding-chain draw, cftp._bounding_draw: blocks of t, 2 t, 4 t, ...
   steps, each drawn by block from the stream's bits until one is constant,
   refused before a block that would take the steps past max_steps, then that
   block's value replayed through the others, deepest first, into sample. mt
   is the stream's generator as in mt_words, word its 32 bytes of buffered
   bits and *avail their count; hand_back leaves all three as the stream's
   state after the draw, whatever its end. A block of at least ENTRIES steps
   decodes by a step table, built once for the draw. out gets the blocks
   drawn, the steps, the order tests and 1, or 0 when the ceiling refused a
   block, or -1 when memory ran out. Returns the bits read. */
int64_t draw(uint32_t *mt, uint8_t *word, int64_t *avail, int64_t n, double pen, int64_t cap,
             const uint64_t *rows, int64_t w, int64_t t, int64_t max_steps, int32_t *sample,
             int64_t *out) {
    feed_t *f = calloc(1, sizeof *f);
    int64_t steps = 0, comps = 0, levels = 0, read = 0, status = -1;
    uint32_t *kept[64], *table = NULL, *step = NULL;
    int32_t *bnd = malloc((size_t)n * sizeof *bnd);
    int tabled = 0;
    if (!f || !bnd)
        goto done;
    f->mt = mt;
    memcpy(f->saved, mt, sizeof f->saved);
    f->base = f->end = *avail;
    f->batch = 1;
    memcpy(f->buf, word, (size_t)(*avail + 7) >> 3);
    if (*avail & 7)
        f->buf[*avail >> 3] &= (uint8_t)((1u << (*avail & 7)) - 1);
    for (;;) {
        if (steps + t > max_steps) {
            status = 0;
            break;
        }
        if (!(step = malloc((size_t)t * 2 * sizeof *step)))
            goto done;
        if (t >= ENTRIES && !tabled) {
            tabled = 1;
            if ((table = malloc(ENTRIES * sizeof *table)) && !step_table(n - 1, pen, table)) {
                free(table);
                table = NULL;
            }
        }
        int constant = block(f, n, pen, t >= ENTRIES ? table : NULL, t, cap, rows, w, step, bnd,
                             &comps);
        steps += t;
        kept[levels++] = step;
        step = NULL;
        if (constant) {
            status = 1;
            break;
        }
        t *= 2;
    }
    for (int64_t j = levels - 2; status == 1 && j >= 0; j--) {
        t /= 2;
        comps += bound_replay(cap, rows, w, t, kept[j], bnd);
        steps += t;
    }
    if (status == 1)
        memcpy(sample, bnd, (size_t)n * sizeof *bnd);
done:
    out[0] = levels;
    out[1] = steps;
    out[2] = comps;
    out[3] = status;
    if (f && bnd)
        read = hand_back(f, word, avail);
    for (int64_t j = 0; j < levels; j++)
        free(kept[j]);
    free(step);
    free(table);
    free(bnd);
    free(f);
    return read;
}

/* The order-ideal DP, one layer per dp_layer call, as exact._layer_loop.
   dp_open binds an order of rows of w words, below holding the row of each
   element's predecessors, and the buffers its layers share until dp_close.
   A layer's keys hold its m source ideals as rows, bit v set when element v
   is placed, and weights their weights in rows of kin words. For each source
   ideal in order and each v in 1..hi in increasing order that is unplaced
   and has every predecessor placed, the pair (source, v) makes the ideal
   source + v, found by its full row in an open-addressing table; a new ideal
   takes the next id and the weight 0, and the pair's term, the source's
   weight, times pen when v is at, is added to it there and then. No row is
   stored until dp_take: ideal k is the source of the pair that made it first
   plus its element, so with one-word weights a layer holds 48 to 96 B per
   ideal: its table slot, its first pair and its weight.

   A row hashes to the sum over its words of row[j] * K_j mod 2^64, K_j odd
   and distinct (salt), and takes the table slot of its hash's top bits.
   Placing element v adds K_j << (v & 63), j = v >> 6, so a pair's hash is
   its source's plus one term. Multiplying by an odd number is a bijection,
   so rows of one word are equal iff their hashes are; longer rows of equal
   hashes are compared word by word.

   A weight is an exact int or a double, as Python would hold it. An int is
   k little-endian words below 2^(64 k - 1). A double, which is never
   negative (pen >= 0), is held in the last word with its sign bit, REAL,
   set. An ideal's weight stays an int while every term is an int; a double
   term makes it a double, and from then on every term is rounded to a
   double and added, as Python adds an int and a float. An ideal takes at
   most hi terms, so k is the fewest words that hold hi times the largest
   int of the source layer below the top bit. */

#define REAL (1ULL << 63)

typedef struct {
    uint64_t hash;
    int64_t id;  /* -1 where empty */
} slot_t;

typedef struct {
    int64_t v;
    uint64_t hash;
} next_t;  /* an element a source ideal can add, and the hash of the ideal it makes */

typedef struct {
    const uint64_t *keys, *in, *below;
    int64_t w, kin, k, ideals, slots, shift, overflow;
    uint64_t *salt;  /* K_j per word */
    int32_t *first;  /* per ideal: the source and element that made it first */
    uint64_t *sum;   /* per ideal: its weight in k words */
    slot_t *table;   /* slots long, at most half full */
    next_t *next;    /* a source's pairs */
    int64_t first_room, sum_room, table_room, next_room;  /* their lengths */
} dp_t;

/* Word j's K_j, 2 x + 1 for x a bijection of j mod 2^63 (splitmix64's
   finalizer there), so odd and distinct for every j. */
static uint64_t salt(uint64_t j) {
    const uint64_t low = ~0ULL >> 1;
    uint64_t x = (j + 1) * 0x9e3779b97f4a7c15ULL & low;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL & low;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL & low;
    return (x ^ (x >> 31)) << 1 | 1;
}

void dp_close(dp_t *D) {
    if (!D)
        return;
    free(D->salt);
    free(D->first);
    free(D->sum);
    free(D->table);
    free(D->next);
    free(D);
}

/* The DP of the order whose predecessor rows are below, or NULL when memory
   runs out. */
dp_t *dp_open(int64_t w, const uint64_t *below) {
    dp_t *D = calloc(1, sizeof *D);
    if (!D || !(D->salt = malloc((size_t)w * sizeof *D->salt))) {
        dp_close(D);
        return NULL;
    }
    for (int64_t j = 0; j < w; j++)
        D->salt[j] = salt((uint64_t)j);
    D->w = w;
    D->below = below;
    return D;
}

/* dp_take writes the last layer's ideals' rows and weights in id order; its
   source rows must still be in place. */
void dp_take(const dp_t *D, uint64_t *rows, uint64_t *weights) {
    for (int64_t k = 0; k < D->ideals; k++) {
        const int32_t *f = D->first + 2 * k;
        memcpy(rows + k * D->w, D->keys + f[0] * D->w, (size_t)D->w * 8);
        rows[k * D->w + (f[1] >> 6)] |= 1ULL << (f[1] & 63);
    }
    memcpy(weights, D->sum, (size_t)(D->ideals * D->k) * 8);
}

static double real(uint64_t word) {
    double d;
    word &= ~REAL;
    memcpy(&d, &word, 8);
    return d;
}

/* The int in words x[0..k) as a double, rounded to nearest with ties to
   even as Python rounds it; *overflow is set when it is past the largest
   double, where Python raises OverflowError. */
static double to_double(const uint64_t *x, int64_t k, int64_t *overflow) {
    int64_t j = k - 1;
    while (j > 0 && !x[j])
        j--;
    if (j == 0)
        return (double)x[0];
    int lead = __builtin_clzll(x[j]);
    uint64_t top = x[j] << lead, rest = x[j - 1] << lead;
    if (lead)
        top |= x[j - 1] >> (64 - lead);
    for (int64_t i = 0; i < j - 1; i++)
        rest |= x[i];
    /* the bits below top's 64 only break ties, so one sticky bit stands
       for them */
    double d = ldexp((double)(top | (rest != 0)), (int)(64 * j - lead));
    if (isinf(d))
        *overflow = 1;
    return d;
}

/* Add source s's weight, times pen when scaled, into the weight acc. */
static void add(dp_t *D, uint64_t *acc, int64_t s, int scaled, double pen) {
    const uint64_t *src = D->in + s * D->kin;
    int64_t k = D->k, kin = D->kin;
    if (!scaled && !((src[kin - 1] | acc[k - 1]) & REAL)) {
        unsigned __int128 carry = 0;  /* an int term into an int: k fits the sum */
        for (int64_t i = 0; i < k; i++) {
            carry += (unsigned __int128)acc[i] + (i < kin ? src[i] : 0);
            acc[i] = (uint64_t)carry;
            carry >>= 64;
        }
        return;
    }
    double t = src[kin - 1] & REAL ? real(src[kin - 1]) : to_double(src, kin, &D->overflow);
    if (scaled)
        t *= pen;
    t += acc[k - 1] & REAL ? real(acc[k - 1]) : to_double(acc, k, &D->overflow);
    memset(acc, 0, (size_t)(k - 1) * 8);
    memcpy(&acc[k - 1], &t, 8);
    acc[k - 1] |= REAL;
}

/* Make *p hold count items of size bytes, *have counting what it holds. */
static int room(void *p, int64_t *have, int64_t count, size_t size) {
    void **q = p, *r;
    if (count <= *have)
        return 1;
    if (!(r = realloc(*q, (size_t)count * size)))
        return 0;
    *q = r;
    *have = count;
    return 1;
}

/* Make the table slots long, moving its ideals into a new one, and make
   room for slots / 2 ideals; a table with no ideals is reused when it is
   long enough. */
static int resize(dp_t *D, int64_t slots) {
    uint64_t mask = (uint64_t)slots - 1;
    slot_t *old = D->table, *table = old;
    if (!room(&D->first, &D->first_room, slots, sizeof *D->first)
        || !room(&D->sum, &D->sum_room, slots / 2 * D->k, sizeof *D->sum))
        return 0;
    if (D->ideals || slots > D->table_room) {
        if (!(table = malloc((size_t)slots * sizeof *table)))
            return 0;
        D->table_room = slots;
    }
    D->shift = 64 - __builtin_ctzll((uint64_t)slots);
    for (int64_t i = 0; i < slots; i++)
        table[i].id = -1;
    for (int64_t k = 0; k < D->slots; k++) {
        uint64_t i = old[k].hash >> D->shift;
        if (old[k].id < 0)
            continue;
        while (table[i].id >= 0)
            i = (i + 1) & mask;
        table[i] = old[k];
    }
    if (table != old)
        free(old);
    D->table = table;
    D->slots = slots;
    return 1;
}

/* The weight of the ideal source s + v, whose row hashes to h; a new one is
   made first by that pair, with the weight 0. */
static uint64_t *ideal_sum(dp_t *D, int64_t s, int64_t v, uint64_t h) {
    uint64_t mask = (uint64_t)D->slots - 1;
    int64_t w = D->w;
    const uint64_t *row = D->keys + s * w;
    for (uint64_t i = h >> D->shift;; i = (i + 1) & mask) {
        slot_t *slot = &D->table[i];
        if (slot->id < 0) {
            uint64_t *acc = D->sum + D->ideals * D->k;
            slot->hash = h;
            slot->id = D->ideals;
            D->first[2 * D->ideals] = (int32_t)s;
            D->first[2 * D->ideals++ + 1] = (int32_t)v;
            memset(acc, 0, (size_t)D->k * 8);
            return acc;
        }
        if (slot->hash != h)
            continue;
        if (w == 1)
            return D->sum + slot->id * D->k;
        const int32_t *f = D->first + 2 * slot->id;
        const uint64_t *other = D->keys + f[0] * w;
        int64_t j = 0;
        for (; j < w; j++)
            if ((row[j] | (j == v >> 6 ? 1ULL << (v & 63) : 0))
                != (other[j] | (j == f[1] >> 6 ? 1ULL << (f[1] & 63) : 0)))
                break;
        if (j == w)
            return D->sum + slot->id * D->k;
    }
}

/* List source s's pairs in list, with the hashes of the ideals they make,
   and prefetch those ideals' table slots; returns their count. */
static int64_t pairs(dp_t *D, int64_t s, int64_t hi, next_t *list) {
    int64_t w = D->w, count = 0;
    const uint64_t *row = D->keys + s * w;
    uint64_t h = 0;
    for (int64_t j = 0; j < w; j++)
        h += row[j] * D->salt[j];
    for (int64_t j = 0; j <= hi >> 6; j++) {
        uint64_t open = ~row[j];
        if (j == 0)
            open &= ~1ULL;
        if (j == hi >> 6 && (hi & 63) != 63)
            open &= (2ULL << (hi & 63)) - 1;
        for (; open; open &= open - 1) {
            int64_t v = 64 * j + __builtin_ctzll(open), i = 0;
            const uint64_t *need = D->below + v * w;
            while (i < w && !(need[i] & ~row[i]))
                i++;
            if (i < w)
                continue;  /* a predecessor of v is unplaced */
            list[count].v = v;
            list[count].hash = h + (D->salt[j] << (v & 63));
            __builtin_prefetch(&D->table[list[count++].hash >> D->shift]);
        }
    }
    return count;
}

/* Build the layer after keys in D's buffers, with a table of at least 32
   and 2 m slots; stops after the source ideal that takes the ideals past
   limit, or that rounds an int past the largest double. sizes gets (ideals,
   k, overflow). Returns 1, or 0 when memory runs out. A source's pairs are
   listed, and their table slots prefetched, before any is looked up, so the
   lookups' cache misses overlap. A one-word int term into a one-word int
   weight is added in place; add takes every other. */
int64_t dp_layer(dp_t *D, const uint64_t *keys, int64_t m, const uint64_t *weights, int64_t kin,
                 int64_t hi, int64_t at, double pen, int64_t limit, int64_t *sizes) {
    int64_t bits = 0, slots = 32, ints;
    next_t *list;
    for (int64_t s = 0; s < m; s++) {
        const uint64_t *x = weights + s * kin;
        int64_t j = kin - 1;
        if (x[j] & REAL)
            continue;
        while (j > 0 && !x[j])
            j--;
        if (64 * j + bit_length(x[j]) > bits)
            bits = 64 * j + bit_length(x[j]);
    }
    D->keys = keys;
    D->in = weights;
    D->kin = kin;
    D->k = (bits + bit_length((uint64_t)hi)) / 64 + 1;
    D->ideals = D->slots = D->overflow = 0;
    ints = kin == 1 && D->k == 1;
    while (slots < 2 * m)
        slots *= 2;
    if (!resize(D, slots) || !room(&D->next, &D->next_room, hi + 1, sizeof *D->next))
        return 0;
    list = D->next;
    for (int64_t s = 0; s < m && D->ideals <= limit && !D->overflow; s++) {
        uint64_t x = weights[s * kin];
        for (int64_t c = 0, count = pairs(D, s, hi, list); c < count; c++) {
            int64_t v = list[c].v;
            uint64_t *acc;
            if (2 * (D->ideals + 1) > D->slots && !resize(D, 2 * D->slots))
                return 0;
            acc = ideal_sum(D, s, v, list[c].hash);
            if (ints && v != at && !((x | *acc) & REAL))
                *acc += x;
            else
                add(D, acc, s, v == at, pen);
        }
    }
    sizes[0] = D->ideals;
    sizes[1] = D->k;
    sizes[2] = D->overflow;
    return 1;
}
