/* CFTP draws and the ideal DP in C, one function per Python loop in
   cftp.py and exact.py; native.py calls draw and dp_sum, each of which runs
   a whole draw or DP in one call. A DP's weights are exact multi-word ints
   when pen is 1 and doubles otherwise, one type per DP (see weight_t).

   draw runs a whole bounding-chain draw, generate's loop: blocks twice as
   long further into the past until one is constant, then the replay of its
   value through the others, deepest first. It makes the stream's bits
   itself, as getrandbits(256) does (mt_words), in batches ahead of its
   reads; at the end it puts the generator back and makes again only the
   words it read from, so it leaves the generator where the Python draws do.

   block draws a block's steps (pos, up, gate) as BitStream.uniform_int,
   next_bit and bernoulli do, reading bits least significant first, and runs
   the bound through each step as it is decoded: it is
   _block. uniform, bit and coin read the bits one
   at a time; a block given step_table's table instead looks up the step its
   next TABLE_BITS bits start, with the bits it reads, and leaves to those
   three only the steps that read more. Either way a step reads the same
   bits. A step is kept as one uint32, pos | up << 16 | gate << 17, next to
   the bound's right entry before it, 8 B a step. bound_replay is
   _bound_replay. The order is given as rows of w 64-bit words: bit b of row
   a is set iff a precedes b. Values, positions and slots are 1-based as in
   Python; arrays are 0-based. */

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

/* The order-ideal DP, exact._layer_loop, in one dp_sum call: dp_layer
   builds each layer from the one before, dp_take makes it the next source,
   and every buffer is dp_open's or grown by the layers, and freed by
   dp_close before dp_sum returns. A layer's ideals are rows of w words, bit
   v set when element v is placed, each with a weight. For each source ideal
   in order and each v in 1..hi in increasing order that is unplaced and has
   every predecessor placed, the pair (source, v) makes the ideal source + v,
   found by its full row in an open-addressing table; a new ideal takes the
   next id and the weight 0, and the pair's term, the source's weight, times
   pen when v is at, is added to it there and then. No row is stored until
   dp_take: ideal k is the source of the pair that made it first plus its
   element, so with one-word weights a layer being built holds 48 to 96 B per
   ideal: its table slot, its first pair and its weight.

   A row hashes to the sum over its words of row[j] * K_j mod 2^64, K_j odd
   and distinct (salt), and takes the table slot of its hash's top bits.
   Placing element v adds K_j << (v & 63), j = v >> 6, so a pair's hash is
   its source's plus one term. Multiplying by an odd number is a bijection,
   so rows of one word are equal iff their hashes are; longer rows of equal
   hashes are compared word by word.

   A DP has one number type, told by at. With at = 0 (pen is 1, which
   scales nothing) a weight is an exact int in k little-endian words, k the
   fewest that hold hi times the largest weight of the source layer, since an
   ideal takes at most hi terms. With at > 0 every weight is one double, and
   each term, the source's double times pen when v is at, is rounded and then
   added, as Python adds floats: the build's -ffp-contract=off keeps the
   product from fusing into the add. */

typedef union {
    uint64_t word;  /* a word of an int weight */
    double real;    /* a double weight */
} weight_t;

typedef struct {
    uint64_t hash;
    int64_t id;  /* -1 where empty */
} slot_t;

typedef struct {
    int64_t v;
    uint64_t hash;
} next_t;  /* an element a source ideal can add, and the hash of the ideal it makes */

typedef struct {
    uint64_t *below;        /* per element: the row of its predecessors */
    uint64_t *salt;         /* K_j per word */
    uint64_t *keys, *rows;  /* the source layer's m rows, and dp_take's for the new layer */
    weight_t *in, *sum;     /* per ideal: a source's weight in kin words, a new one's in k */
    int32_t *first;  /* per ideal: the source and element that made it first */
    slot_t *table;   /* slots long, at most half full */
    next_t *next;    /* a source's pairs */
    int64_t w, m, kin, k, ideals, slots, shift;
    int64_t keys_room, rows_room, in_room, sum_room, first_room, table_room, next_room;
} dp_t;

#define SWAP(a, b) do { __typeof__(a) swap_ = a; a = b; b = swap_; } while (0)

/* Word j's K_j, 2 x + 1 for x a bijection of j mod 2^63 (splitmix64's
   finalizer there), so odd and distinct for every j. */
static uint64_t salt(uint64_t j) {
    const uint64_t low = ~0ULL >> 1;
    uint64_t x = (j + 1) * 0x9e3779b97f4a7c15ULL & low;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL & low;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL & low;
    return (x ^ (x >> 31)) << 1 | 1;
}

static void dp_close(dp_t *D) {
    if (!D)
        return;
    free(D->below);
    free(D->salt);
    free(D->keys);
    free(D->rows);
    free(D->in);
    free(D->sum);
    free(D->first);
    free(D->table);
    free(D->next);
    free(D);
}

/* The DP of the order of n elements whose rows of w words are order, at its
   first layer: the empty ideal, of weight 1, or 1.0 when real. Returns NULL
   when memory runs out. */
static dp_t *dp_open(int64_t n, const uint64_t *order, int64_t w, int64_t real) {
    dp_t *D = calloc(1, sizeof *D);
    if (!D || !(D->salt = malloc((size_t)w * sizeof *D->salt))
        || !(D->below = calloc((size_t)((n + 1) * w), sizeof *D->below))
        || !(D->keys = calloc((size_t)w, sizeof *D->keys))
        || !(D->in = malloc(sizeof *D->in))) {
        dp_close(D);
        return NULL;
    }
    for (int64_t j = 0; j < w; j++)
        D->salt[j] = salt((uint64_t)j);
    for (int64_t a = 1; a <= n; a++)
        for (int64_t j = 0; j < w; j++)
            for (uint64_t x = order[a * w + j]; x; x &= x - 1)
                D->below[(64 * j + __builtin_ctzll(x)) * w + (a >> 6)] |= 1ULL << (a & 63);
    if (real)
        D->in->real = 1.0;
    else
        D->in->word = 1;
    D->w = w;
    D->keys_room = w;
    D->m = D->kin = D->in_room = 1;
    return D;
}

/* Add source s's int weight into the int weight acc: k fits the sum. */
static void add(const dp_t *D, weight_t *acc, int64_t s) {
    const weight_t *src = D->in + s * D->kin;
    unsigned __int128 carry = 0;
    for (int64_t i = 0; i < D->k; i++) {
        carry += (unsigned __int128)acc[i].word + (i < D->kin ? src[i].word : 0);
        acc[i].word = (uint64_t)carry;
        carry >>= 64;
    }
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
static weight_t *ideal_sum(dp_t *D, int64_t s, int64_t v, uint64_t h) {
    uint64_t mask = (uint64_t)D->slots - 1;
    int64_t w = D->w;
    const uint64_t *row = D->keys + s * w;
    for (uint64_t i = h >> D->shift;; i = (i + 1) & mask) {
        slot_t *slot = &D->table[i];
        if (slot->id < 0) {
            weight_t *acc = D->sum + D->ideals * D->k;
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

/* Build the layer after the source layer in D's buffers, with a table of at
   least 32 and 2 m slots; stops after the source ideal that takes the
   ideals past limit. Returns 1, or 0 when memory runs out. A source's pairs
   are listed, and their table slots prefetched, before any is looked up, so
   the lookups' cache misses overlap. A double term and a one-word int term
   into a one-word int weight are added in place; add takes every other. */
static int dp_layer(dp_t *D, int64_t hi, int64_t at, double pen, int64_t limit) {
    const weight_t *weights = D->in;
    int64_t bits = 0, slots = 32, m = D->m, kin = D->kin, ints;
    next_t *list;
    for (int64_t s = 0; s < m && !at; s++) {
        const weight_t *x = weights + s * kin;
        int64_t j = kin - 1;
        while (j > 0 && !x[j].word)
            j--;
        if (64 * j + bit_length(x[j].word) > bits)
            bits = 64 * j + bit_length(x[j].word);
    }
    D->k = at ? 1 : (bits + bit_length((uint64_t)hi)) / 64 + 1;
    D->ideals = D->slots = 0;
    ints = kin == 1 && D->k == 1;
    while (slots < 2 * m)
        slots *= 2;
    if (!resize(D, slots) || !room(&D->next, &D->next_room, hi + 1, sizeof *D->next))
        return 0;
    list = D->next;
    for (int64_t s = 0; s < m && D->ideals <= limit; s++) {
        weight_t x = weights[s * kin];
        for (int64_t c = 0, count = pairs(D, s, hi, list); c < count; c++) {
            int64_t v = list[c].v;
            weight_t *acc;
            if (2 * (D->ideals + 1) > D->slots && !resize(D, 2 * D->slots))
                return 0;
            acc = ideal_sum(D, s, v, list[c].hash);
            if (at)
                acc->real += v == at ? x.real * pen : x.real;
            else if (ints)
                acc->word += x.word;
            else
                add(D, acc, s);
        }
    }
    return 1;
}

/* Make the layer just built the source layer: write its ideals' rows in id
   order, and swap them and its weights with the old source's buffers.
   Returns 0 when memory runs out. */
static int dp_take(dp_t *D) {
    int64_t w = D->w;
    if (!room(&D->rows, &D->rows_room, D->ideals * w, sizeof *D->rows))
        return 0;
    for (int64_t k = 0; k < D->ideals; k++) {
        const int32_t *f = D->first + 2 * k;
        memcpy(D->rows + k * w, D->keys + f[0] * w, (size_t)w * 8);
        D->rows[k * w + (f[1] >> 6)] |= 1ULL << (f[1] & 63);
    }
    SWAP(D->keys, D->rows);
    SWAP(D->keys_room, D->rows_room);
    SWAP(D->in, D->sum);
    SWAP(D->in_room, D->sum_room);
    D->m = D->ideals;
    D->kin = D->k;
    return 1;
}

/* The DP of the order of n elements whose rows of w words are order (bit b
   of row a set iff a precedes b) at cap: layer p + 1 takes the elements
   1..min(n, p + cap + 1), with exact ints when real is 0, and doubles with
   at = p + cap + 1 otherwise. Returns 0 with the weight of the last layer's
   one ideal, the whole order, in out's size words (an int whose words past
   size are 0, or a double in out[0]; out is left as it is when the layer is
   empty), or the layer p whose ideals passed limit, with their count in
   out[0], or -1 when memory runs out. */
int64_t dp_sum(int64_t n, const uint64_t *order, int64_t w, int64_t cap, int64_t real, double pen,
               int64_t limit, int64_t size, uint64_t *out) {
    dp_t *D = dp_open(n, order, w, real);
    int64_t p = 0, status = -1;
    for (; D && p < n; p++) {
        if (!dp_layer(D, p + cap + 1 < n ? p + cap + 1 : n, real ? p + cap + 1 : 0, pen, limit))
            break;
        if (D->ideals > limit) {
            out[0] = (uint64_t)D->ideals;
            status = p + 1;
            break;
        }
        if (!dp_take(D))
            break;
    }
    if (D && p == n) {
        memcpy(out, D->in, (size_t)(D->m ? (D->kin < size ? D->kin : size) : 0) * 8);
        status = 0;
    }
    dp_close(D);
    return status;
}
