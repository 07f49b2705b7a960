/* Compiled engine: the policy loop behind permutation trials and file-order
 * runs, exhaustive subset search and the indent-2 JSON writer.
 *
 * A CPython module that gcc alone builds. One inlined loop, play, replays a
 * kernel-mode policy over one arrival order and writes the held-set update
 * of every mode once; its compile-time flags pick the trial loop's weighted
 * and memoryless copies, and `record` the file-order run, which also
 * reports each arrival's action. Both entries take the policy as one tuple
 * and read their shared inputs through one reader. The trial loop matches the
 * Python policies it stands for (revsel.algorithms, replayed by
 * harness._trials) bit for bit: the permutation is revsel.rng's shuffle
 * (same splitmix64 stream, same rejection sampling, same Fisher-Yates
 * order) and the memoryless draws are the policy's. The file-order run
 * matches harness.run_policy action for action. Neither checks
 * feasibility: the tests diff both against the harness. The subset search
 * matches its twin in revsel._engine.fallback (same enumeration order);
 * keep those two in lockstep. Coordinates, weights and the acceptance
 * fraction are read as 64-bit integers, and an int that does not fit
 * raises OverflowError: the dispatchers in revsel._engine keep such inputs
 * away from this module. indent_json re-spaces the compact JSON text of
 * the C encoder into json.dumps(indent=2)'s layout; its fallback is
 * json.dumps itself.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <string.h>

typedef uint64_t u64;
typedef int64_t i64;

#define GOLDEN 0x9E3779B97F4A7C15ULL
#define SUBSET_CAP 24

static inline u64 mix64(u64 z)
{
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

/* rng.substream_seed: the stream state of trial `index`. */
static inline u64 substream(u64 seed, u64 index)
{
    return mix64(seed ^ mix64((index + 1) * GOLDEN));
}

/* One rng.Stream.randbelow(n) step: r = 2**64 mod n, and a draw z is
 * accepted iff z < 2**64 - r (always, when r == 0). */
static inline u64 randbelow(u64 *state, u64 n)
{
    u64 r = (0 - n) % n, z;
    do {
        *state += GOLDEN;
        z = mix64(*state);
    } while (r != 0 && z >= 0 - r);
    return z % n;
}

typedef struct {
    i64 s, e;
} span;

/* rng._shuffle: Fisher-Yates over items, drawing from the stream at state.
 * A non-NULL `w` is permuted in lockstep with the items. */
static void shuffle(span *items, i64 *w, Py_ssize_t n, u64 state)
{
    for (Py_ssize_t i = n - 1; i > 0; i--) {
        Py_ssize_t j = (Py_ssize_t)randbelow(&state, (u64)i + 1);
        span tmp = items[i];
        items[i] = items[j];
        items[j] = tmp;
        if (w != NULL) {
            i64 tmp_w = w[i];
            w[i] = w[j];
            w[j] = tmp_w;
        }
    }
}

static PyObject *permutation_raw(PyObject *Py_UNUSED(self), PyObject *args)
{
    Py_ssize_t n;
    PyObject *seed, *trial;
    if (!PyArg_ParseTuple(args, "nOO", &n, &seed, &trial))
        return NULL;
    u64 s = PyLong_AsUnsignedLongLongMask(seed);
    if (s == (u64)-1 && PyErr_Occurred())
        return NULL;
    u64 state = substream(s, PyLong_AsUnsignedLongLongMask(trial));
    if (PyErr_Occurred())
        return NULL;
    if (n < 0)
        n = 0;
    span *idx = PyMem_New(span, n + 1);
    if (idx == NULL)
        return PyErr_NoMemory();
    for (Py_ssize_t i = 0; i < n; i++)
        idx[i] = (span){i, i};
    shuffle(idx, NULL, n, state);
    PyObject *out = PyList_New(n);
    for (Py_ssize_t i = 0; out != NULL && i < n; i++) {
        PyObject *v = PyLong_FromLongLong(idx[i].s);
        if (v == NULL)
            Py_CLEAR(out);
        else
            PyList_SET_ITEM(out, i, v);
    }
    PyMem_Free(idx);
    return out;
}

/* Reads item i of `list` (at least n long) into out[i]; -1 on error. */
static int read_i64s(PyObject *list, Py_ssize_t n, i64 *out)
{
    for (Py_ssize_t i = 0; i < n; i++) {
        out[i] = PyLong_AsLongLong(PyList_GET_ITEM(list, i));
        if (out[i] == -1 && PyErr_Occurred())
            return -1;
    }
    return 0;
}

/* One side's replace bits: the table's keys and truth values, and its
 * default. A later duplicate key wins, as in dict(zip(keys, vals)). */
typedef struct {
    Py_ssize_t n;
    i64 *keys;
    char *bits;
    int dflt;
} table;

static int read_table(PyObject *keys, PyObject *vals, int dflt, table *tb)
{
    tb->n = Py_MIN(PyList_GET_SIZE(keys), PyList_GET_SIZE(vals));
    tb->dflt = dflt;
    tb->keys = PyMem_New(i64, tb->n + 1);
    tb->bits = PyMem_Malloc(tb->n + 1);
    if (tb->keys == NULL || tb->bits == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    for (Py_ssize_t i = 0; i < tb->n; i++) {
        int bit = PyObject_IsTrue(PyList_GET_ITEM(vals, i));
        if (bit < 0)
            return -1;
        tb->bits[i] = (char)bit;
    }
    return read_i64s(keys, tb->n, tb->keys);
}

static int lookup(const table *tb, i64 v)
{
    for (Py_ssize_t i = tb->n - 1; i >= 0; i--)
        if (tb->keys[i] == v)
            return tb->bits[i];
    return tb->dflt;
}

/* The kernel modes; revsel._engine names them. */
enum { THRESHOLD, ALWAYS, NEVER, SUBSUME, CALL_CONTROL, MEMORYLESS };

/* Whether the arrival [s, e) takes the place of the conflicting run
 * held[first, last), which is never empty, in mode THRESHOLD, SUBSUME or
 * CALL_CONTROL (play decides the other modes itself). Inlined
 * into each trial loop: a call per conflict costs several percent on short
 * trials. */
static inline __attribute__((always_inline)) int replaces(int mode, i64 s, i64 e, const i64 *held_s, const i64 *held_e,
                    Py_ssize_t first, Py_ssize_t last, const table *fl, const table *fr)
{
    i64 ms = held_s[first], me = held_e[first];
    int copy = ms == s && me == e;
    /* A member that contains the arrival is its only conflict: the held set
     * is disjoint. */
    int inside = ms <= s && e <= me && !copy;
    if (mode == SUBSUME)
        return inside;
    if (mode == CALL_CONTROL) {
        if (inside)
            return 1;
        /* Lengths reach 2**63 - 2 inside the dispatchers' +-2**62 guard, so
         * twice a length needs 64 unsigned bits. */
        u64 twice = 2 * ((u64)e - (u64)s);
        for (Py_ssize_t i = first; i < last; i++)
            if ((u64)held_e[i] - (u64)held_s[i] <= twice)
                return 0;
        return 1;
    }
    if (last - first >= 2)
        return 0;
    /* Containment cannot occur between equal lengths; guard anyway. */
    if (inside || (s <= ms && me <= e && !copy))
        return 0;
    i64 v = (e < me ? e : me) - (s > ms ? s : ms);
    return lookup(s < ms ? fl : fr, v);
}

/* rng.Stream.bernoulli(num/den) for a fraction in lowest terms: no draw
 * when den == 1. */
static inline int bernoulli(u64 *state, u64 num, u64 den)
{
    return den == 1 ? num == 1 : randbelow(state, den) < num;
}

/* What a file-order run records beside its held set: each member's arrival
 * position, kept in lockstep with held_s and held_e, and per arrival p an
 * accept flag and the positions it displaced, displaced[offsets[p],
 * offsets[p + 1]). Every array holds n items, offsets n + 1. */
typedef struct {
    i64 *held_p, *displaced, *offsets;
    char *accepted;
} recording;

/* What both policy-loop entries read: n arrivals in list order, the held
 * columns (room for n members), the kernel mode and its threshold tables,
 * the acceptance fraction num/den and the seed. */
typedef struct {
    Py_ssize_t n;
    int mode;
    span *arrivals;
    i64 *held_s, *held_e;
    table fl, fr;
    u64 num, den, seed;
} inputs;

/* Frees what read_inputs allocated, however far it got. */
static void release(inputs *in)
{
    PyMem_Free(in->arrivals);
    PyMem_Free(in->held_s);
    PyMem_Free(in->held_e);
    PyMem_Free(in->fl.keys);
    PyMem_Free(in->fl.bits);
    PyMem_Free(in->fr.keys);
    PyMem_Free(in->fr.bits);
}

/* Reads into `in` the arguments both policy-loop entries take: the columns
 * (at most `limit` arrivals), the policy tuple (the mode; the left table's
 * keys, bits and default; the right table's; the acceptance numerator and
 * denominator) and the seed. -1 on error; either way release(in) frees
 * what `in` holds. */
static int read_inputs(PyObject *starts, PyObject *ends, PyObject *policy, PyObject *seed,
                       Py_ssize_t limit, inputs *in)
{
    PyObject *flk, *flv, *frk, *frv;
    int fld, frd;
    long long num, den;
    *in = (inputs){0};
    if (!PyArg_ParseTuple(policy, "iO!O!pO!O!pLL", &in->mode, &PyList_Type, &flk, &PyList_Type,
                          &flv, &fld, &PyList_Type, &frk, &PyList_Type, &frv, &frd, &num, &den))
        return -1;
    if (den < 1 || num < 0) {
        PyErr_SetString(PyExc_ValueError, "acceptance fraction needs num >= 0 and den >= 1");
        return -1;
    }
    in->num = (u64)num;
    in->den = (u64)den;
    in->seed = PyLong_AsUnsignedLongLongMask(seed);
    if (in->seed == (u64)-1 && PyErr_Occurred())
        return -1;
    Py_ssize_t n = Py_MIN(Py_MIN(PyList_GET_SIZE(starts), PyList_GET_SIZE(ends)), limit);
    in->n = n;
    in->arrivals = PyMem_New(span, n + 1);
    in->held_s = PyMem_New(i64, n + 1);
    in->held_e = PyMem_New(i64, n + 1);
    if (in->arrivals == NULL || in->held_s == NULL || in->held_e == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    if (read_table(flk, flv, fld, &in->fl) < 0 || read_table(frk, frv, frd, &in->fr) < 0)
        return -1;
    /* The held columns are free until the first arrival: read through them. */
    if (read_i64s(starts, n, in->held_s) < 0 || read_i64s(ends, n, in->held_e) < 0)
        return -1;
    for (Py_ssize_t i = 0; i < n; i++)
        in->arrivals[i] = (span){in->held_s[i], in->held_e[i]};
    return 0;
}

/* Plays `order`'s n arrivals, in order, against an empty held set and
 * returns ALG: the final held count, or with `weighted` the final held
 * weight (order_w holds the arrivals' weights, held_w the members').
 * `memoryless` is mode == MEMORYLESS, and `draws` that mode's decision
 * stream. With `record`, every decision goes into `rec`; the trial loop
 * passes 0 and NULL, so its inlined copies carry no recording code.
 *
 * The held set is disjoint and sorted by start, so the members that
 * conflict with [s, e) are [bisect_right(held_e, s), bisect_left(held_s, e,
 * lo)). Both searches probe as bisect does. An accepted arrival, in every
 * mode, takes slot `first` in place of that run, which is empty when
 * nothing conflicts: the held set stays feasible at every step. */
static inline __attribute__((always_inline)) u64
play(int weighted, int memoryless, int record, const inputs *in, const span *order,
     const i64 *order_w, i64 *held_w, u64 draws, const recording *rec)
{
    /* Locals, which the held-column stores cannot alias. */
    const int mode = in->mode;
    const Py_ssize_t n = in->n;
    i64 *const held_s = in->held_s, *const held_e = in->held_e;
    const u64 num = in->num, den = in->den;
    Py_ssize_t h = 0, nd = 0;
    for (Py_ssize_t p = 0; p < n; p++) {
        i64 s = order[p].s, e = order[p].e;
        if (record) {
            rec->offsets[p] = nd;
            rec->accepted[p] = 0;
        }
        /* A memoryless policy draws for every arrival, conflict-free ones
         * included, and a miss rejects it. */
        if (memoryless && !bernoulli(&draws, num, den))
            continue;
        Py_ssize_t lo = 0, hi = h;
        while (lo < hi) {
            Py_ssize_t mid = (lo + hi) / 2;
            if (s < held_e[mid])
                hi = mid;
            else
                lo = mid + 1;
        }
        Py_ssize_t first = lo;
        hi = h;
        while (lo < hi) {
            Py_ssize_t mid = (lo + hi) / 2;
            if (held_s[mid] < e)
                lo = mid + 1;
            else
                hi = mid;
        }
        Py_ssize_t last = lo, take = last - first;
        if (take > 0 && (mode == NEVER || (mode != ALWAYS && !memoryless &&
                                           !replaces(mode, s, e, held_s, held_e, first, last,
                                                     &in->fl, &in->fr))))
            continue;
        if (record) {
            /* Before the shift below overwrites the run. */
            for (Py_ssize_t i = first; i < last; i++)
                rec->displaced[nd++] = rec->held_p[i];
            rec->accepted[p] = 1;
        }
        /* One memmove per column opens the slot (an empty run) or closes up
         * the run's surplus (two or more members). */
        if (take != 1) {
            size_t tail = (size_t)(h - last) * sizeof(i64);
            memmove(held_s + first + 1, held_s + last, tail);
            memmove(held_e + first + 1, held_e + last, tail);
            if (weighted)
                memmove(held_w + first + 1, held_w + last, tail);
            if (record)
                memmove(rec->held_p + first + 1, rec->held_p + last, tail);
            h += 1 - take;
        }
        held_s[first] = s;
        held_e[first] = e;
        if (weighted)
            held_w[first] = order_w[p];
        if (record)
            rec->held_p[first] = p;
    }
    if (record)
        rec->offsets[n] = nd;
    if (!weighted)
        return (u64)h;
    /* The dispatchers keep weight sums below 2**62; unsigned addition keeps
     * any other sum defined. */
    u64 total = 0;
    for (Py_ssize_t i = 0; i < h; i++)
        total += (u64)held_w[i];
    return total;
}

/* Runs one trial per slot of `out`, from trial `first` on; -1 on error.
 * `weights` holds the arrivals' weights, and order, order_w and held_w are
 * scratch of n items. Every call site passes `weighted` and `memoryless` as
 * constants, so that the inlined unit-weight loop of the other modes
 * carries no weight or draw code. */
static inline __attribute__((always_inline)) int
run_trials(int weighted, int memoryless, const inputs *in, const i64 *weights, u64 first,
           span *order, i64 *order_w, i64 *held_w, PyObject *out)
{
    const Py_ssize_t n = in->n;
    if (!weighted)
        order_w = NULL;
    for (Py_ssize_t t = 0; t < PyList_GET_SIZE(out); t++) {
        /* Slot t holds trial first + t. Shuffling the arrivals with that
         * trial's draws plays them in permutation_raw(n, seed, first + t)
         * order; decisions draw from substream 2**32 + first + t, clear of
         * the permutation substreams. */
        const u64 trial = first + (u64)t;
        memcpy(order, in->arrivals, n * sizeof(span));
        if (weighted)
            memcpy(order_w, weights, n * sizeof(i64));
        shuffle(order, order_w, n, substream(in->seed, trial));
        u64 draws = memoryless ? substream(in->seed, ((u64)1 << 32) + trial) : 0;
        u64 alg = play(weighted, memoryless, 0, in, order, order_w, held_w, draws, NULL);
        PyObject *v = PyLong_FromLongLong((i64)alg);
        if (v == NULL)
            return -1;
        PyList_SET_ITEM(out, t, v);
    }
    return 0;
}

static PyObject *run_single_length_trials_raw(PyObject *Py_UNUSED(self), PyObject *args)
{
    PyObject *starts, *ends, *policy, *seed, *weights, *out = NULL;
    Py_ssize_t trials, first;
    if (!PyArg_ParseTuple(args, "O!O!O!nOO!n", &PyList_Type, &starts, &PyList_Type, &ends,
                          &PyTuple_Type, &policy, &trials, &seed, &PyList_Type, &weights, &first))
        return NULL;
    if (first < 0) {
        PyErr_SetString(PyExc_ValueError, "the first trial index must be >= 0");
        return NULL;
    }
    /* An empty weights list means unit weights: a trial's ALG is then its
     * held count, and no weight is kept. */
    Py_ssize_t nw = PyList_GET_SIZE(weights);
    int weighted = nw > 0;
    inputs in;
    span *order = NULL;
    i64 *arrival_w = NULL, *order_w = NULL, *held_w = NULL;
    if (read_inputs(starts, ends, policy, seed, weighted ? nw : PY_SSIZE_T_MAX, &in) < 0)
        goto done;
    order = PyMem_New(span, in.n + 1);
    if (weighted) {
        arrival_w = PyMem_New(i64, in.n + 1);
        order_w = PyMem_New(i64, in.n + 1);
        held_w = PyMem_New(i64, in.n + 1);
    }
    if (order == NULL || (weighted && (arrival_w == NULL || order_w == NULL || held_w == NULL))) {
        PyErr_NoMemory();
        goto done;
    }
    if (weighted && read_i64s(weights, in.n, arrival_w) < 0)
        goto done;
    if ((out = PyList_New(Py_MAX(trials, 0))) == NULL)
        goto done;
    int status;
    if (in.mode == MEMORYLESS)
        status = weighted ? run_trials(1, 1, &in, arrival_w, first, order, order_w, held_w, out)
                          : run_trials(0, 1, &in, arrival_w, first, order, order_w, held_w, out);
    else
        status = weighted ? run_trials(1, 0, &in, arrival_w, first, order, order_w, held_w, out)
                          : run_trials(0, 0, &in, arrival_w, first, order, order_w, held_w, out);
    if (status < 0)
        Py_CLEAR(out);
done:
    release(&in);
    PyMem_Free(order);
    PyMem_Free(arrival_w);
    PyMem_Free(order_w);
    PyMem_Free(held_w);
    return out;
}

/* A new list of v[0, n); NULL on error. */
static PyObject *list_of(const i64 *v, Py_ssize_t n)
{
    PyObject *out = PyList_New(n);
    for (Py_ssize_t i = 0; out != NULL && i < n; i++) {
        PyObject *item = PyLong_FromLongLong(v[i]);
        if (item == NULL)
            Py_CLEAR(out);
        else
            PyList_SET_ITEM(out, i, item);
    }
    return out;
}

/* One run of a kernel-mode policy over the arrivals in list order, the
 * twin of harness.run_policy: memoryless draws come from substream(seed,
 * 0), which is rng.Stream.for_trial(seed, 0). Returns (accepted, offsets,
 * displaced, final): a bytes object of one accept flag per arrival, the
 * n + 1 offsets into displaced, the positions each arrival displaced, in
 * arrival order, and the final members' positions in start order. */
static PyObject *run_file_order_raw(PyObject *Py_UNUSED(self), PyObject *args)
{
    PyObject *starts, *ends, *policy, *seed, *accepted = NULL, *out = NULL;
    if (!PyArg_ParseTuple(args, "O!O!O!O", &PyList_Type, &starts, &PyList_Type, &ends,
                          &PyTuple_Type, &policy, &seed))
        return NULL;
    inputs in;
    recording rec = {0};
    if (read_inputs(starts, ends, policy, seed, PY_SSIZE_T_MAX, &in) < 0)
        goto done;
    Py_ssize_t n = in.n;
    rec.held_p = PyMem_New(i64, n + 1);
    rec.displaced = PyMem_New(i64, n + 1);
    rec.offsets = PyMem_New(i64, n + 1);
    if (rec.held_p == NULL || rec.displaced == NULL || rec.offsets == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    if ((accepted = PyBytes_FromStringAndSize(NULL, n)) == NULL)
        goto done;
    rec.accepted = PyBytes_AS_STRING(accepted);
    Py_ssize_t h;
    if (in.mode == MEMORYLESS)
        h = (Py_ssize_t)play(0, 1, 1, &in, in.arrivals, NULL, NULL, substream(in.seed, 0), &rec);
    else
        h = (Py_ssize_t)play(0, 0, 1, &in, in.arrivals, NULL, NULL, 0, &rec);
    PyObject *off = list_of(rec.offsets, n + 1);
    PyObject *gone = off == NULL ? NULL : list_of(rec.displaced, rec.offsets[n]);
    PyObject *final = gone == NULL ? NULL : list_of(rec.held_p, h);
    if (final != NULL)
        out = PyTuple_Pack(4, accepted, off, gone, final);
    Py_XDECREF(off);
    Py_XDECREF(gone);
    Py_XDECREF(final);
done:
    Py_XDECREF(accepted);
    release(&in);
    PyMem_Free(rec.held_p);
    PyMem_Free(rec.displaced);
    PyMem_Free(rec.offsets);
    return out;
}

static PyObject *best_subset_scaled(PyObject *Py_UNUSED(self), PyObject *args)
{
    PyObject *starts, *ends, *weights, *out = NULL;
    if (!PyArg_ParseTuple(args, "O!O!O!", &PyList_Type, &starts, &PyList_Type,
                          &ends, &PyList_Type, &weights))
        return NULL;
    Py_ssize_t n = PyList_GET_SIZE(starts);
    if (n == 0)
        return Py_BuildValue("(ii)", 0, 0);
    if (n > SUBSET_CAP) {
        PyErr_SetString(PyExc_ValueError, "subset search capped at 24 intervals");
        return NULL;
    }
    if (PyList_GET_SIZE(ends) < n || PyList_GET_SIZE(weights) < n) {
        PyErr_SetString(PyExc_IndexError, "list index out of range");
        return NULL;
    }
    uint32_t size = (uint32_t)1 << n, masks[SUBSET_CAP] = {0}, best_mask = 0;
    i64 cs[SUBSET_CAP], ce[SUBSET_CAP], ws[SUBSET_CAP], best = 0;
    char *feasible = PyMem_Calloc(size, 1);
    i64 *weight = PyMem_Malloc((size_t)size * sizeof(i64));
    if (feasible == NULL || weight == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    if (read_i64s(starts, n, cs) < 0 || read_i64s(ends, n, ce) < 0 ||
        read_i64s(weights, n, ws) < 0)
        goto done;
    for (Py_ssize_t i = 0; i < n; i++)
        for (Py_ssize_t j = 0; j < n; j++)
            if (i != j && (cs[i] > cs[j] ? cs[i] : cs[j]) < (ce[i] < ce[j] ? ce[i] : ce[j]))
                masks[i] |= (uint32_t)1 << j;
    /* feasible[S] extends feasible[S minus its lowest bit]; ties on weight
     * keep the smallest mask. */
    feasible[0] = 1;
    weight[0] = 0;
    for (uint32_t set = 1; set < size; set++) {
        int i = __builtin_ctz(set);
        uint32_t rest = set & (set - 1);
        if (feasible[rest] && !(masks[i] & rest)) {
            feasible[set] = 1;
            weight[set] = weight[rest] + ws[i];
            if (weight[set] > best) {
                best = weight[set];
                best_mask = set;
            }
        }
    }
    out = Py_BuildValue("(LI)", (long long)best, (unsigned int)best_mask);
done:
    PyMem_Free(feasible);
    PyMem_Free(weight);
    return out;
}

/* One pass of indent_json over the ASCII text s[0, n): with out == NULL it
 * only counts the output's length, else it also writes it there. Returns the
 * length, or -1 (with ValueError set) on unbalanced brackets or an open
 * string. Both passes run this one function, so they cannot disagree. */
static Py_ssize_t indent_pass(const char *s, Py_ssize_t n, Py_UCS1 *out)
{
    Py_ssize_t size = 0, depth = 0;
    int in_string = 0;
/* Appends a newline and the indent of the current depth. */
#define NEWLINE()                                   \
    do {                                            \
        if (out != NULL) {                          \
            out[size] = '\n';                       \
            memset(out + size + 1, ' ', 2 * depth); \
        }                                           \
        size += 1 + 2 * depth;                      \
    } while (0)
/* Appends one byte; `ch` must have no side effects, since the size pass
 * does not evaluate it. */
#define PUT(ch)                   \
    do {                          \
        if (out != NULL)          \
            out[size] = (ch);     \
        size++;                   \
    } while (0)
    for (Py_ssize_t i = 0; i < n; i++) {
        char c = s[i];
        if (in_string) {
            /* Escapes are copied verbatim; the escaped byte cannot close
             * the string. */
            if (c == '\\' && i + 1 < n) {
                PUT(c);
                c = s[++i];
            } else if (c == '"') {
                in_string = 0;
            }
            PUT(c);
            continue;
        }
        switch (c) {
        case '"':
            in_string = 1;
            PUT(c);
            break;
        case '[':
        case '{':
            PUT(c);
            if (i + 1 < n && s[i + 1] == (c == '[' ? ']' : '}')) {
                i++; /* an empty container stays on its line */
                PUT(s[i]);
            } else {
                depth++;
                NEWLINE();
            }
            break;
        case ']':
        case '}':
            if (--depth < 0) {
                PyErr_SetString(PyExc_ValueError, "indent_json: unbalanced brackets");
                return -1;
            }
            NEWLINE();
            PUT(c);
            break;
        case ',':
            PUT(c);
            NEWLINE();
            break;
        case ':':
            PUT(c);
            PUT(' ');
            break;
        default:
            PUT(c);
        }
    }
#undef NEWLINE
#undef PUT
    if (depth != 0 || in_string) {
        PyErr_SetString(PyExc_ValueError, "indent_json: unbalanced brackets or quotes");
        return -1;
    }
    return size;
}

/* json.dumps(obj, indent=2, sort_keys=True) from the text that
 * json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode(obj) makes
 * of the same obj: a size pass, then a fill pass into a new ASCII string. */
static PyObject *indent_json(PyObject *Py_UNUSED(self), PyObject *text)
{
    if (!PyUnicode_Check(text)) {
        PyErr_SetString(PyExc_TypeError, "indent_json takes a str");
        return NULL;
    }
    Py_ssize_t n;
    const char *s = PyUnicode_AsUTF8AndSize(text, &n);
    if (s == NULL)
        return NULL;
    if (!PyUnicode_IS_ASCII(text)) {
        PyErr_SetString(PyExc_ValueError, "indent_json takes ASCII text");
        return NULL;
    }
    Py_ssize_t size = indent_pass(s, n, NULL);
    if (size < 0)
        return NULL;
    PyObject *out = PyUnicode_New(size, 127);
    if (out != NULL)
        indent_pass(s, n, PyUnicode_1BYTE_DATA(out));
    return out;
}

static PyMethodDef kernel_methods[] = {
    {"permutation_raw", permutation_raw, METH_VARARGS,
     "Trial permutation, matching rng.permutation exactly."},
    {"run_single_length_trials_raw", run_single_length_trials_raw, METH_VARARGS,
     "Final solution size (or weight) of each permutation trial of a kernel-mode policy."},
    {"run_file_order_raw", run_file_order_raw, METH_VARARGS,
     "(accept flags, offsets, displaced positions, final positions) of one file-order run."},
    {"best_subset_scaled", best_subset_scaled, METH_VARARGS,
     "(best total weight, member bitmask) over all conflict-free subsets."},
    {"indent_json", indent_json, METH_O,
     "json.dumps(obj, indent=2, sort_keys=True) from obj's compact sorted encoding."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef kernel_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_kernel",
    .m_doc = "Compiled policy loop, subset search and JSON indenter of revsel._engine.",
    .m_size = -1,
    .m_methods = kernel_methods,
};

PyMODINIT_FUNC PyInit__kernel(void)
{
    return PyModule_Create(&kernel_module);
}
