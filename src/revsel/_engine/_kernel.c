/* Compiled engine: the policy loop behind permutation trials and file-order
 * runs, exhaustive subset search, the exact oracles, the indent-2 JSON
 * writer and the instance file reader.
 *
 * A CPython module that gcc alone builds. One inlined loop, play, replays a
 * kernel-mode policy over one arrival order and writes the held-set update
 * of every mode once; its compile-time flags pick the trial loop's weighted
 * and memoryless copies, and `record` the file-order run, which also
 * reports each arrival's action. Every arrival carries its list position,
 * which a weighted or recording play (`located`) keeps beside each held
 * member's start and end. Both entries take the policy as one tuple and
 * read their shared inputs through one reader. The trial loop matches the
 * Python policies it stands for (revsel.algorithms, replayed by
 * harness._trials) bit for bit: the permutation is revsel.rng's shuffle
 * (same splitmix64 stream, same rejection sampling, same Fisher-Yates
 * order) and the memoryless draws are the policy's. The file-order run
 * matches harness.run_policy action for action. Neither checks
 * feasibility: the tests diff both against the harness. The subset search
 * matches its twin in revsel._engine.fallback (same enumeration order),
 * and so do the oracles, opt_members (same sort order, same members in the
 * same order); keep each pair in lockstep. These four entries take exact
 * lists or tuples of one length and read every coordinate, table key,
 * weight and acceptance numerator and denominator through one guard,
 * read_int (weights summing below 2**62, too); on anything else they return
 * None while they read, and revsel._engine takes the Python path instead.
 * dumps_json writes json.dumps(indent=2, sort_keys=True)'s text in one pass
 * for the few types the CLI's payloads hold, a run's transcript among them,
 * whose rows it writes straight from its columns, and declines the rest;
 * its fallback is json.dumps itself, which renders a transcript through
 * its to_json_list().
 * jsonl_columns reads an instance file's text straight into its start and
 * end columns and raw weights when every line is byte for byte what
 * core.dumps_jsonl writes, with integers of at most 18 digits; it declines
 * any other text before it keeps a record, and core.loads_jsonl's chunk
 * loop then reads the text and raises every error.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>
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

/* An arrival [s, e) and its position p in the input list. */
typedef struct {
    i64 s, e, p;
} arrival;

/* rng._shuffle: Fisher-Yates over items, drawing from the stream at state. */
static void shuffle(arrival *items, Py_ssize_t n, u64 state)
{
    for (Py_ssize_t i = n - 1; i > 0; i--) {
        Py_ssize_t j = (Py_ssize_t)randbelow(&state, (u64)i + 1);
        arrival tmp = items[i];
        items[i] = items[j];
        items[j] = tmp;
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
    arrival *idx = PyMem_New(arrival, n + 1);
    if (idx == NULL)
        return PyErr_NoMemory();
    for (Py_ssize_t i = 0; i < n; i++)
        idx[i] = (arrival){0, 0, i};
    shuffle(idx, n, state);
    PyObject *out = PyList_New(n);
    for (Py_ssize_t i = 0; out != NULL && i < n; i++) {
        PyObject *v = PyLong_FromLongLong(idx[i].p);
        if (v == NULL)
            Py_CLEAR(out);
        else
            PyList_SET_ITEM(out, i, v);
    }
    PyMem_Free(idx);
    return out;
}

#define GUARD ((i64)1 << 62)

/* The one guard: `o` into *v; 0 unless it is an exact int strictly inside
 * +-GUARD, so that no difference of two such ints overflows 64 bits. */
static inline int read_int(PyObject *o, i64 *v)
{
    int overflow;
    if (!PyLong_CheckExact(o))
        return 0;
    *v = PyLong_AsLongLongAndOverflow(o, &overflow);
    return !overflow && -GUARD < *v && *v < GUARD;
}

/* The length of `seq` if it is an exact list or tuple, else -1. */
static inline Py_ssize_t column_length(PyObject *seq)
{
    return PyList_CheckExact(seq) || PyTuple_CheckExact(seq) ? PySequence_Fast_GET_SIZE(seq) : -1;
}

/* The column `seq`, an exact list or tuple of n items, into out through
 * read_int; 0 where it declines, or with `total` (weights) once their
 * absolute values sum to GUARD. No add wraps: each term is below GUARD. */
static int read_column(PyObject *seq, Py_ssize_t n, i64 *out, u64 *total)
{
    if (column_length(seq) != n)
        return 0;
    PyObject **items = PySequence_Fast_ITEMS(seq);
    for (Py_ssize_t i = 0; i < n; i++)
        if (!read_int(items[i], &out[i])
            || (total != NULL && (*total += (u64)(out[i] < 0 ? -out[i] : out[i])) >= (u64)GUARD))
            return 0;
    return 1;
}

/* One side's replace bits: the table's keys and truth values, and its
 * default. A later duplicate key wins, as in dict(zip(keys, vals)). */
typedef struct {
    Py_ssize_t n;
    i64 *keys;
    char *bits;
    int dflt;
} table;

/* -1 on error, 0 where the keys or the columns' lengths decline, else 1. */
static int read_table(PyObject *keys, PyObject *vals, int dflt, table *tb)
{
    tb->n = column_length(keys);
    tb->dflt = dflt;
    if (tb->n < 0 || column_length(vals) != tb->n)
        return 0;
    tb->keys = PyMem_New(i64, tb->n + 1);
    tb->bits = PyMem_Malloc(tb->n + 1);
    if (tb->keys == NULL || tb->bits == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    for (Py_ssize_t i = 0; i < tb->n; i++) {
        int bit = PyObject_IsTrue(PySequence_Fast_GET_ITEM(vals, i));
        if (bit < 0)
            return -1;
        tb->bits[i] = (char)bit;
    }
    return read_column(keys, tb->n, tb->keys, NULL);
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
        /* Lengths reach 2**63 - 2 inside the +-2**62 guard, so
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

/* What a file-order run records: per arrival p an accept flag and the
 * positions it displaced, displaced[offsets[p], offsets[p + 1]). Every
 * array holds n items, offsets n + 1. */
typedef struct {
    i64 *displaced, *offsets;
    char *accepted;
} recording;

/* What both policy-loop entries read: n arrivals in list order, the held
 * columns (room for n members; only a located play keeps held_p), the
 * kernel mode and its threshold tables, the acceptance fraction num/den
 * and the seed. */
typedef struct {
    Py_ssize_t n;
    int mode;
    arrival *arrivals;
    i64 *held_s, *held_e, *held_p;
    table fl, fr;
    u64 num, den, seed;
} inputs;

/* Frees what read_inputs allocated, however far it got. */
static void release(inputs *in)
{
    PyMem_Free(in->arrivals);
    PyMem_Free(in->held_s);
    PyMem_Free(in->held_e);
    PyMem_Free(in->held_p);
    PyMem_Free(in->fl.keys);
    PyMem_Free(in->fl.bits);
    PyMem_Free(in->fr.keys);
    PyMem_Free(in->fr.bits);
}

/* Reads into `in` the arguments both policy-loop entries take: the columns,
 * the policy tuple (the mode; the left table's keys, bits and default; the
 * right table's; the acceptance numerator and denominator) and the seed.
 * -1 on error, 0 where the guard declines, else 1; either way release(in)
 * frees what `in` holds. */
static int read_inputs(PyObject *starts, PyObject *ends, PyObject *policy, PyObject *seed,
                       inputs *in)
{
    PyObject *flk, *flv, *frk, *frv, *numo, *deno;
    int fld, frd, rc;
    i64 num, den;
    *in = (inputs){0};
    if (!PyArg_ParseTuple(policy, "iOOpOOpOO", &in->mode, &flk, &flv, &fld, &frk, &frv, &frd,
                          &numo, &deno))
        return -1;
    if (!read_int(numo, &num) || !read_int(deno, &den))
        return 0;
    if (den < 1 || num < 0) {
        PyErr_SetString(PyExc_ValueError, "acceptance fraction needs num >= 0 and den >= 1");
        return -1;
    }
    in->num = (u64)num;
    in->den = (u64)den;
    in->seed = PyLong_AsUnsignedLongLongMask(seed);
    if (in->seed == (u64)-1 && PyErr_Occurred())
        return -1;
    Py_ssize_t n = in->n = column_length(starts);
    if (n < 0)
        return 0;
    in->arrivals = PyMem_New(arrival, n + 1);
    in->held_s = PyMem_New(i64, n + 1);
    in->held_e = PyMem_New(i64, n + 1);
    in->held_p = PyMem_New(i64, n + 1);
    if (in->arrivals == NULL || in->held_s == NULL || in->held_e == NULL || in->held_p == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    if ((rc = read_table(flk, flv, fld, &in->fl)) <= 0
        || (rc = read_table(frk, frv, frd, &in->fr)) <= 0)
        return rc;
    /* The held columns are free until the first arrival: read through them. */
    if (!read_column(starts, n, in->held_s, NULL) || !read_column(ends, n, in->held_e, NULL))
        return 0;
    for (Py_ssize_t i = 0; i < n; i++)
        in->arrivals[i] = (arrival){in->held_s[i], in->held_e[i], i};
    return 1;
}

/* Plays `order`'s n arrivals, in order, against an empty held set and
 * returns the final held count h. With `located`, in->held_p[0, h) then
 * holds the final members' positions, in start order. `memoryless` is
 * mode == MEMORYLESS, and `draws` that mode's decision stream. With
 * `record`, which requires `located`, every decision goes into `rec`; the
 * trial loop passes 0 and NULL, so its inlined copies carry no recording
 * code, and its unit-weight copies move no position column either.
 *
 * The held set is disjoint and sorted by start, so the members that
 * conflict with [s, e) are [bisect_right(held_e, s), bisect_left(held_s, e,
 * lo)). Both searches probe as bisect does. An accepted arrival, in every
 * mode, takes slot `first` in place of that run, which is empty when
 * nothing conflicts: the held set stays feasible at every step. */
static inline __attribute__((always_inline)) Py_ssize_t
play(int located, int memoryless, int record, const inputs *in, const arrival *order,
     u64 draws, const recording *rec)
{
    /* Locals, which the held-column stores cannot alias. */
    const int mode = in->mode;
    const Py_ssize_t n = in->n;
    i64 *const held_s = in->held_s, *const held_e = in->held_e, *const held_p = in->held_p;
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
                rec->displaced[nd++] = held_p[i];
            rec->accepted[p] = 1;
        }
        /* One memmove per column opens the slot (an empty run) or closes up
         * the run's surplus (two or more members). */
        if (take != 1) {
            size_t tail = (size_t)(h - last) * sizeof(i64);
            memmove(held_s + first + 1, held_s + last, tail);
            memmove(held_e + first + 1, held_e + last, tail);
            if (located)
                memmove(held_p + first + 1, held_p + last, tail);
            h += 1 - take;
        }
        held_s[first] = s;
        held_e[first] = e;
        if (located)
            held_p[first] = order[p].p;
    }
    if (record)
        rec->offsets[n] = nd;
    return h;
}

/* Runs one trial per slot of `out`, from trial `first` on; -1 on error. A
 * trial's ALG is its final held count, or with `weighted` the final
 * members' total of `weights`, the arrivals' weights by position. `order`
 * is scratch of n arrivals. Every call site passes `weighted` and
 * `memoryless` as constants, so that the inlined unit-weight loop of the
 * other modes carries no position, weight or draw code. */
static inline __attribute__((always_inline)) int
run_trials(int weighted, int memoryless, const inputs *in, const i64 *weights, u64 first,
           arrival *order, PyObject *out)
{
    const Py_ssize_t n = in->n;
    for (Py_ssize_t t = 0; t < PyList_GET_SIZE(out); t++) {
        /* Slot t holds trial first + t. Shuffling the arrivals with that
         * trial's draws plays them in permutation_raw(n, seed, first + t)
         * order; decisions draw from substream 2**32 + first + t, clear of
         * the permutation substreams. */
        const u64 trial = first + (u64)t;
        memcpy(order, in->arrivals, n * sizeof(arrival));
        shuffle(order, n, substream(in->seed, trial));
        u64 draws = memoryless ? substream(in->seed, ((u64)1 << 32) + trial) : 0;
        Py_ssize_t h = play(weighted, memoryless, 0, in, order, draws, NULL);
        i64 alg = h;
        if (weighted) {
            /* The guard keeps the weights' absolute values summing below
             * 2**62. */
            alg = 0;
            for (Py_ssize_t i = 0; i < h; i++)
                alg += weights[in->held_p[i]];
        }
        PyObject *v = PyLong_FromLongLong(alg);
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
    if (!PyArg_ParseTuple(args, "OOO!nOOn", &starts, &ends, &PyTuple_Type, &policy, &trials,
                          &seed, &weights, &first))
        return NULL;
    if (first < 0) {
        PyErr_SetString(PyExc_ValueError, "the first trial index must be >= 0");
        return NULL;
    }
    /* Empty weights mean unit weights: a trial's ALG is then its held
     * count, and no weight is kept. */
    int weighted = column_length(weights) != 0;
    inputs in;
    arrival *order = NULL;
    i64 *arrival_w = NULL;
    u64 total = 0;
    int rc = read_inputs(starts, ends, policy, seed, &in);
    if (rc <= 0)
        goto done;
    order = PyMem_New(arrival, in.n + 1);
    if (weighted)
        arrival_w = PyMem_New(i64, in.n + 1);
    if (order == NULL || (weighted && arrival_w == NULL)) {
        PyErr_NoMemory();
        goto done;
    }
    if (weighted && (rc = read_column(weights, in.n, arrival_w, &total)) == 0)
        goto done;
    if ((out = PyList_New(Py_MAX(trials, 0))) == NULL)
        goto done;
    int status;
    if (in.mode == MEMORYLESS)
        status = weighted ? run_trials(1, 1, &in, arrival_w, first, order, out)
                          : run_trials(0, 1, &in, arrival_w, first, order, out);
    else
        status = weighted ? run_trials(1, 0, &in, arrival_w, first, order, out)
                          : run_trials(0, 0, &in, arrival_w, first, order, out);
    if (status < 0)
        Py_CLEAR(out);
done:
    release(&in);
    PyMem_Free(order);
    PyMem_Free(arrival_w);
    return rc == 0 ? Py_NewRef(Py_None) : out;
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
    if (!PyArg_ParseTuple(args, "OOO!O", &starts, &ends, &PyTuple_Type, &policy, &seed))
        return NULL;
    inputs in;
    recording rec = {0};
    int rc = read_inputs(starts, ends, policy, seed, &in);
    if (rc <= 0)
        goto done;
    Py_ssize_t n = in.n;
    rec.displaced = PyMem_New(i64, n + 1);
    rec.offsets = PyMem_New(i64, n + 1);
    if (rec.displaced == NULL || rec.offsets == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    if ((accepted = PyBytes_FromStringAndSize(NULL, n)) == NULL)
        goto done;
    rec.accepted = PyBytes_AS_STRING(accepted);
    Py_ssize_t h;
    if (in.mode == MEMORYLESS)
        h = play(1, 1, 1, &in, in.arrivals, substream(in.seed, 0), &rec);
    else
        h = play(1, 0, 1, &in, in.arrivals, 0, &rec);
    PyObject *off = list_of(rec.offsets, n + 1);
    PyObject *gone = off == NULL ? NULL : list_of(rec.displaced, rec.offsets[n]);
    PyObject *final = gone == NULL ? NULL : list_of(in.held_p, h);
    if (final != NULL)
        out = PyTuple_Pack(4, accepted, off, gone, final);
    Py_XDECREF(off);
    Py_XDECREF(gone);
    Py_XDECREF(final);
done:
    Py_XDECREF(accepted);
    release(&in);
    PyMem_Free(rec.displaced);
    PyMem_Free(rec.offsets);
    return rc == 0 ? Py_NewRef(Py_None) : out;
}

/* best_subset_scaled(starts, ends, weights): (best total weight, member
 * bitmask) over all conflict-free subsets; None where the guard declines. */
static PyObject *best_subset_scaled(PyObject *Py_UNUSED(self), PyObject *args)
{
    PyObject *starts, *ends, *weights, *out = NULL;
    if (!PyArg_ParseTuple(args, "OOO", &starts, &ends, &weights))
        return NULL;
    Py_ssize_t n = column_length(starts);
    if (n > SUBSET_CAP) {
        PyErr_SetString(PyExc_ValueError, "subset search capped at 24 intervals");
        return NULL;
    }
    uint32_t masks[SUBSET_CAP] = {0}, best_mask = 0;
    i64 cs[SUBSET_CAP], ce[SUBSET_CAP], ws[SUBSET_CAP], best = 0;
    u64 total = 0;
    if (n < 0 || !read_column(starts, n, cs, NULL) || !read_column(ends, n, ce, NULL)
        || !read_column(weights, n, ws, &total))
        Py_RETURN_NONE;
    uint32_t size = (uint32_t)1 << n;
    char *feasible = PyMem_Calloc(size, 1);
    i64 *weight = PyMem_Malloc((size_t)size * sizeof(i64));
    if (feasible == NULL || weight == NULL) {
        PyErr_NoMemory();
        goto done;
    }
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

/* The exact oracles: the member positions of a maximum-cardinality set by
 * earliest-finish greedy (no weights) or of a maximum-weight set by the
 * end-time DP, step for step as their twin, fallback.opt_members, takes
 * them. */

/* An arrival in the oracles' sort: its end, start, id and position. */
typedef struct {
    i64 e, s, id;
    Py_ssize_t p;
} oracle_item;

/* Whether x sorts before y: by end ascending, then by start, descending
 * with `longer_first` (the greedy's order, the longer interval last) and
 * ascending without (the DP's), then by id ascending. Ids are distinct, so
 * the order is total and any sort gives the twin's stable sorts' order. */
static inline int oracle_before(const oracle_item *x, const oracle_item *y, int longer_first)
{
    if (x->e != y->e)
        return x->e < y->e;
    if (x->s != y->s)
        return longer_first ? x->s > y->s : x->s < y->s;
    return x->id < y->id;
}

/* Runs that the sort orders by insertion before it merges them. */
#define ORACLE_RUN 16

/* Sorts items[0, n) by oracle_before: insertion-sorted runs, then
 * bottom-up merges that alternate between items and tmp (n items each).
 * Returns the array that holds the result. Inlined, so that each call
 * site's constant `longer_first` leaves one comparison path; qsort's
 * comparator call per step took three times as long. */
static inline __attribute__((always_inline)) oracle_item *
oracle_sort(oracle_item *items, oracle_item *tmp, Py_ssize_t n, int longer_first)
{
    for (Py_ssize_t lo = 0; lo < n; lo += ORACLE_RUN) {
        Py_ssize_t hi = Py_MIN(lo + ORACLE_RUN, n);
        for (Py_ssize_t i = lo + 1; i < hi; i++) {
            oracle_item x = items[i];
            Py_ssize_t j = i;
            for (; j > lo && oracle_before(&x, &items[j - 1], longer_first); j--)
                items[j] = items[j - 1];
            items[j] = x;
        }
    }
    for (Py_ssize_t width = ORACLE_RUN; width < n; width *= 2) {
        for (Py_ssize_t lo = 0; lo < n; lo += 2 * width) {
            Py_ssize_t mid = Py_MIN(lo + width, n), hi = Py_MIN(lo + 2 * width, n);
            Py_ssize_t i = lo, j = mid, k = lo;
            while (i < mid && j < hi)
                tmp[k++] = oracle_before(&items[j], &items[i], longer_first) ? items[j++]
                                                                             : items[i++];
            while (i < mid)
                tmp[k++] = items[i++];
            while (j < hi)
                tmp[k++] = items[j++];
        }
        oracle_item *swap = items;
        items = tmp;
        tmp = swap;
    }
    return items;
}

/* The greedy's members in the order it takes them; tmp is the sort's
 * scratch. */
static Py_ssize_t oracle_greedy(oracle_item *items, oracle_item *tmp, Py_ssize_t n, i64 *members)
{
    Py_ssize_t m = 0;
    i64 frontier = 0;
    items = oracle_sort(items, tmp, n, 1);
    for (Py_ssize_t j = 0; j < n; j++) {
        if (m == 0 || items[j].s >= frontier) {
            members[m++] = items[j].p;
            frontier = items[j].e;
        }
    }
    return m;
}

/* The DP's members in its backtracking order; tmp is the sort's scratch.
 * prev[j] is the last index whose end is at most item j's start,
 * bisect_right(ends, s) - 1, and best holds the n + 1 prefix optima. Every
 * start is below its end, so prev[j] < j: the search stops at j, and the
 * backtracking takes at most n steps. */
static Py_ssize_t oracle_dp(oracle_item *items, oracle_item *tmp, Py_ssize_t n,
                            const i64 *weights, Py_ssize_t *prev, i64 *best, i64 *members)
{
    items = oracle_sort(items, tmp, n, 0);
    best[0] = 0;
    for (Py_ssize_t j = 0; j < n; j++) {
        Py_ssize_t lo = 0, hi = j;
        while (lo < hi) {
            Py_ssize_t mid = (lo + hi) / 2;
            if (items[j].s < items[mid].e)
                hi = mid;
            else
                lo = mid + 1;
        }
        prev[j] = lo - 1;
        i64 take = weights[items[j].p] + best[lo];
        best[j + 1] = take > best[j] ? take : best[j];
    }
    Py_ssize_t m = 0;
    for (Py_ssize_t j = n; j > 0;) {
        if (best[j] == best[j - 1]) {
            j--;
        } else {
            members[m++] = items[j - 1].p;
            j = prev[j - 1] + 1;
        }
    }
    return m;
}

/* opt_members(ids, starts, ends, weights): the member positions, as a list,
 * of the greedy's set when weights is empty and of the DP's otherwise; None
 * where the guard declines (an id counts as a coordinate, and weights may
 * be empty instead of the ids' length) or a start is not below its end,
 * which no instance holds. It declines before it allocates a Python
 * object. */
static PyObject *opt_members(PyObject *Py_UNUSED(self), PyObject *args)
{
    PyObject *ids, *starts, *ends, *weights, *out = NULL;
    if (!PyArg_ParseTuple(args, "OOOO", &ids, &starts, &ends, &weights))
        return NULL;
    Py_ssize_t n = column_length(ids), i = 0;
    int weighted = n > 0 && column_length(weights) == n;
    if (n < 0 || column_length(starts) != n || column_length(ends) != n
        || !(weighted || column_length(weights) == 0))
        Py_RETURN_NONE;
    oracle_item *items = PyMem_New(oracle_item, n + 1), *tmp = PyMem_New(oracle_item, n + 1);
    Py_ssize_t *prev = PyMem_New(Py_ssize_t, n + 1);
    i64 *members = PyMem_New(i64, n + 1), *w = PyMem_New(i64, n + 1),
        *best = PyMem_New(i64, n + 1);
    if (items == NULL || tmp == NULL || prev == NULL || members == NULL || w == NULL
        || best == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    PyObject **id = PySequence_Fast_ITEMS(ids), **s = PySequence_Fast_ITEMS(starts),
             **e = PySequence_Fast_ITEMS(ends);
    for (; i < n; i++) {
        oracle_item *it = &items[i];
        it->p = i;
        if (!read_int(id[i], &it->id) || !read_int(s[i], &it->s) || !read_int(e[i], &it->e)
            || it->s >= it->e)
            break;
    }
    u64 total = 0;
    if (i < n || (weighted && !read_column(weights, n, w, &total))) {
        out = Py_NewRef(Py_None);
        goto done;
    }
    Py_ssize_t m = weighted ? oracle_dp(items, tmp, n, w, prev, best, members)
                            : oracle_greedy(items, tmp, n, members);
    out = list_of(members, m);
done:
    PyMem_Free(items);
    PyMem_Free(tmp);
    PyMem_Free(prev);
    PyMem_Free(members);
    PyMem_Free(w);
    PyMem_Free(best);
    return out;
}

/* The JSON writer: json.dumps(obj, indent=2, sort_keys=True) in one pass,
 * for the types that the CLI's payloads hold. None, True and False; exact
 * ints; exact ASCII strs, escaped as ensure_ascii escapes them; exact lists
 * and tuples; exact dicts whose keys are all exact strs; and transcripts,
 * objects of exactly the type the caller names (harness.RunTranscript),
 * written as the list of rows their to_json_list() gives, straight from
 * their four column slots. Anything else, and containers nested more than
 * JSON_DEPTH_CAP deep (which stops a cycle too), declines: the entry then
 * returns None and writes nothing, so json.dumps writes every text and
 * raises every error that this writer does not. The writer calls no Python
 * code (it reads a transcript's slots through their member descriptors),
 * and until it declines it allocates no object that the garbage collector
 * tracks, so the payload cannot change under it and the borrowed
 * references it holds stay valid. */
#define JSON_DEPTH_CAP 64
/* The output's first allocation in bytes; it doubles whenever it fills. */
#define JSON_FIRST_ALLOC 4096

enum { JSON_ERROR = -1, JSON_OK = 0, JSON_DECLINE = 1 };

/* The output, an ASCII str of `cap` characters of which `size` are written;
 * it is resized in place, which its single reference allows. */
typedef struct {
    PyObject *out;
    Py_ssize_t size, cap;
    PyTypeObject *rows; /* the transcript type, or NULL */
} JsonWriter;

/* Where the next n bytes go, growing the output if need be; NULL with
 * MemoryError set if it cannot grow. */
static Py_UCS1 *json_reserve(JsonWriter *w, Py_ssize_t n)
{
    if (w->size + n > w->cap) {
        Py_ssize_t cap = w->cap;
        while (cap < w->size + n)
            cap *= 2;
        if (PyUnicode_Resize(&w->out, cap) < 0)
            return NULL;
        w->cap = cap;
    }
    Py_UCS1 *p = PyUnicode_1BYTE_DATA(w->out) + w->size;
    w->size += n;
    return p;
}

static int json_put(JsonWriter *w, const char *s, Py_ssize_t n)
{
    Py_UCS1 *p = json_reserve(w, n);
    if (p == NULL)
        return JSON_ERROR;
    memcpy(p, s, n);
    return JSON_OK;
}

/* The byte `before` (if not 0), a newline, the indent of `depth` levels and
 * the byte `after` (if not 0). */
static int json_line(JsonWriter *w, char before, int depth, char after)
{
    Py_UCS1 *p = json_reserve(w, (before != 0) + 1 + 2 * depth + (after != 0));
    if (p == NULL)
        return JSON_ERROR;
    if (before != 0)
        *p++ = before;
    *p++ = '\n';
    memset(p, ' ', 2 * depth);
    if (after != 0)
        p[2 * depth] = after;
    return JSON_OK;
}

/* The letter that follows the backslash in ensure_ascii's escape of the
 * ASCII byte `ch` ('u' for \u00XX), or 0 if `ch` stands for itself. */
static char json_escape(Py_UCS1 ch)
{
    switch (ch) {
    case '"':
        return '"';
    case '\\':
        return '\\';
    case '\b':
        return 'b';
    case '\f':
        return 'f';
    case '\n':
        return 'n';
    case '\r':
        return 'r';
    case '\t':
        return 't';
    }
    return ch < 0x20 || ch == 0x7f ? 'u' : 0;
}

static int json_string(JsonWriter *w, PyObject *s)
{
    if (!PyUnicode_IS_ASCII(s))
        return JSON_DECLINE;
    const Py_UCS1 *c = PyUnicode_1BYTE_DATA(s);
    Py_ssize_t n = PyUnicode_GET_LENGTH(s), size = n + 2;
    for (Py_ssize_t i = 0; i < n; i++) {
        char e = json_escape(c[i]);
        size += e == 0 ? 0 : e == 'u' ? 5 : 1;
    }
    Py_UCS1 *p = json_reserve(w, size);
    if (p == NULL)
        return JSON_ERROR;
    *p++ = '"';
    if (size == n + 2) {
        memcpy(p, c, n);
        p += n;
    } else {
        for (Py_ssize_t i = 0; i < n; i++) {
            char e = json_escape(c[i]);
            if (e == 0) {
                *p++ = c[i];
                continue;
            }
            *p++ = '\\';
            *p++ = e;
            if (e == 'u') {
                memcpy(p, "00", 2);
                p[2] = Py_hexdigits[c[i] >> 4];
                p[3] = Py_hexdigits[c[i] & 15];
                p += 4;
            }
        }
    }
    *p = '"';
    return JSON_OK;
}

/* An exact int's decimal text; one past 64 bits goes through its repr, and
 * declines if that fails (past the interpreter's digit limit). */
static int json_int(JsonWriter *w, PyObject *o)
{
    int overflow;
    long long v = PyLong_AsLongLongAndOverflow(o, &overflow);
    if (!overflow) {
        char digits[24], *end = digits + sizeof digits, *p = end;
        unsigned long long u = v < 0 ? 0ULL - (unsigned long long)v : (unsigned long long)v;
        do {
            *--p = (char)('0' + u % 10);
            u /= 10;
        } while (u != 0);
        if (v < 0)
            *--p = '-';
        return json_put(w, p, end - p);
    }
    PyObject *text = PyObject_Repr(o);
    if (text == NULL) {
        PyErr_Clear();
        return JSON_DECLINE;
    }
    int rc = json_put(w, (const char *)PyUnicode_1BYTE_DATA(text), PyUnicode_GET_LENGTH(text));
    Py_DECREF(text);
    return rc;
}

static int json_value(JsonWriter *w, PyObject *o, int depth);

static int json_list(JsonWriter *w, PyObject *o, int depth)
{
    if (PySequence_Fast_GET_SIZE(o) == 0)
        return json_put(w, "[]", 2);
    int rc = JSON_OK;
    for (Py_ssize_t i = 0; rc == JSON_OK && i < PySequence_Fast_GET_SIZE(o); i++) {
        rc = json_line(w, i == 0 ? '[' : ',', depth + 1, 0);
        if (rc == JSON_OK)
            rc = json_value(w, PySequence_Fast_GET_ITEM(o, i), depth + 1);
    }
    return rc == JSON_OK ? json_line(w, 0, depth, ']') : rc;
}

/* One dict entry, borrowed. */
typedef struct {
    PyObject *key, *value;
} JsonItem;

/* Orders items by their keys, ASCII strs, as str comparison does. */
static int json_key_order(const void *a, const void *b)
{
    PyObject *x = ((const JsonItem *)a)->key, *y = ((const JsonItem *)b)->key;
    Py_ssize_t nx = PyUnicode_GET_LENGTH(x), ny = PyUnicode_GET_LENGTH(y);
    int c = memcmp(PyUnicode_1BYTE_DATA(x), PyUnicode_1BYTE_DATA(y), nx < ny ? nx : ny);
    return c != 0 ? c : (nx > ny) - (nx < ny);
}

/* Dicts of up to this many entries sort them on the stack. */
#define JSON_STACK_ITEMS 16

static int json_dict(JsonWriter *w, PyObject *o, int depth)
{
    Py_ssize_t n = PyDict_GET_SIZE(o), pos = 0, i = 0;
    if (n == 0)
        return json_put(w, "{}", 2);
    JsonItem stack[JSON_STACK_ITEMS];
    JsonItem *items = n <= JSON_STACK_ITEMS ? stack : PyMem_New(JsonItem, n);
    if (items == NULL) {
        PyErr_NoMemory();
        return JSON_ERROR;
    }
    int rc = JSON_OK;
    while (rc == JSON_OK && PyDict_Next(o, &pos, &items[i].key, &items[i].value)) {
        if (!PyUnicode_CheckExact(items[i].key) || !PyUnicode_IS_ASCII(items[i].key))
            rc = JSON_DECLINE;
        i++;
    }
    if (rc == JSON_OK)
        qsort(items, n, sizeof *items, json_key_order);
    for (i = 0; rc == JSON_OK && i < n; i++) {
        rc = json_line(w, i == 0 ? '{' : ',', depth + 1, 0);
        if (rc == JSON_OK)
            rc = json_string(w, items[i].key);
        if (rc == JSON_OK)
            rc = json_put(w, ": ", 2);
        if (rc == JSON_OK)
            rc = json_value(w, items[i].value, depth + 1);
    }
    if (items != stack)
        PyMem_Free(items);
    return rc == JSON_OK ? json_line(w, 0, depth, '}') : rc;
}

/* Slot `name` of the transcript `t`, read through the member descriptor in
 * its type's dict, so that no Python code runs; NULL, with no error set,
 * where the type has no such slot or it is unset. */
static PyObject *json_slot(PyObject *t, const char *name)
{
    PyObject *d = PyDict_GetItemString(Py_TYPE(t)->tp_dict, name);
    if (d == NULL || !Py_IS_TYPE(d, &PyMemberDescr_Type))
        return NULL;
    PyObject *v = PyMember_GetOne((const char *)t, ((PyMemberDescrObject *)d)->d_member);
    if (v == NULL)
        PyErr_Clear();
    return v;
}

/* Item i of `offsets` into *v; 0 unless it is an exact int in [lo, hi]. */
static inline int json_offset(PyObject *offsets, Py_ssize_t i, Py_ssize_t lo, Py_ssize_t hi,
                              Py_ssize_t *v)
{
    PyObject *o = PyList_GET_ITEM(offsets, i);
    int overflow;
    if (!PyLong_CheckExact(o))
        return 0;
    long long x = PyLong_AsLongLongAndOverflow(o, &overflow);
    *v = (Py_ssize_t)x;
    return !overflow && lo <= x && x <= hi;
}

static inline int json_exact_int(JsonWriter *w, PyObject *o)
{
    return PyLong_CheckExact(o) ? json_int(w, o) : JSON_DECLINE;
}

/* The rows of a transcript whose columns are the arrival ids, one kind per
 * arrival (0 reject, 1 accept, 2 accept and discard the rest) and the
 * displaced ids, displaced[offsets[p], offsets[p + 1]): each row a dict of
 * "action", "discard_rest" (kind 2 only), "displaced" and "id". Declines
 * unless ids and displaced are lists of exact ints, kinds a bytearray of
 * 0, 1 and 2 as long as ids, and offsets a non-decreasing list of
 * len(ids) + 1 exact ints from 0 on that ends at len(displaced). */
static int json_rows_of(JsonWriter *w, PyObject *ids, PyObject *kinds, PyObject *offsets,
                        PyObject *gone, int depth)
{
    if (!PyList_CheckExact(ids) || !PyByteArray_CheckExact(kinds) || !PyList_CheckExact(offsets)
        || !PyList_CheckExact(gone))
        return JSON_DECLINE;
    Py_ssize_t n = PyList_GET_SIZE(ids), total = PyList_GET_SIZE(gone), lo, hi;
    const char *kind = PyByteArray_AS_STRING(kinds);
    if (PyByteArray_GET_SIZE(kinds) != n || PyList_GET_SIZE(offsets) != n + 1
        || !json_offset(offsets, 0, 0, total, &lo))
        return JSON_DECLINE;
    for (Py_ssize_t p = 0; p < n; p++)
        if ((unsigned char)kind[p] > 2)
            return JSON_DECLINE;
    if (n == 0)
        return lo == total ? json_put(w, "[]", 2) : JSON_DECLINE;
    int rc = JSON_OK;
    for (Py_ssize_t p = 0; rc == JSON_OK && p < n; p++, lo = hi) {
        if (!json_offset(offsets, p + 1, lo, total, &hi) || (p == n - 1 && hi != total))
            return JSON_DECLINE;
        rc = json_line(w, p == 0 ? '[' : ',', depth + 1, 0);
        if (rc == JSON_OK)
            rc = json_line(w, '{', depth + 2, 0);
        if (rc == JSON_OK)
            rc = kind[p] ? json_put(w, "\"action\": \"accept\"", 18)
                         : json_put(w, "\"action\": \"reject\"", 18);
        if (rc == JSON_OK && kind[p] == 2) {
            rc = json_line(w, ',', depth + 2, 0);
            if (rc == JSON_OK)
                rc = json_put(w, "\"discard_rest\": true", 20);
        }
        if (rc == JSON_OK)
            rc = json_line(w, ',', depth + 2, 0);
        if (rc == JSON_OK)
            rc = json_put(w, "\"displaced\": ", 13);
        if (rc == JSON_OK && lo == hi)
            rc = json_put(w, "[]", 2);
        for (Py_ssize_t i = lo; rc == JSON_OK && i < hi; i++) {
            rc = json_line(w, i == lo ? '[' : ',', depth + 3, 0);
            if (rc == JSON_OK)
                rc = json_exact_int(w, PyList_GET_ITEM(gone, i));
        }
        if (rc == JSON_OK && lo < hi)
            rc = json_line(w, 0, depth + 2, ']');
        if (rc == JSON_OK)
            rc = json_line(w, ',', depth + 2, 0);
        if (rc == JSON_OK)
            rc = json_put(w, "\"id\": ", 6);
        if (rc == JSON_OK)
            rc = json_exact_int(w, PyList_GET_ITEM(ids, p));
        if (rc == JSON_OK)
            rc = json_line(w, 0, depth + 1, '}');
    }
    return rc == JSON_OK ? json_line(w, 0, depth, ']') : rc;
}

static int json_rows(JsonWriter *w, PyObject *t, int depth)
{
    PyObject *ids = json_slot(t, "ids"), *kinds = json_slot(t, "kinds");
    PyObject *offsets = json_slot(t, "offsets"), *gone = json_slot(t, "displaced");
    int rc = JSON_DECLINE;
    if (ids != NULL && kinds != NULL && offsets != NULL && gone != NULL)
        rc = json_rows_of(w, ids, kinds, offsets, gone, depth);
    Py_XDECREF(ids);
    Py_XDECREF(kinds);
    Py_XDECREF(offsets);
    Py_XDECREF(gone);
    return rc;
}

/* `o` at indent level `depth`. */
static int json_value(JsonWriter *w, PyObject *o, int depth)
{
    if (o == Py_None)
        return json_put(w, "null", 4);
    if (o == Py_True)
        return json_put(w, "true", 4);
    if (o == Py_False)
        return json_put(w, "false", 5);
    if (PyLong_CheckExact(o))
        return json_int(w, o);
    if (PyUnicode_CheckExact(o))
        return json_string(w, o);
    int list = PyList_CheckExact(o) || PyTuple_CheckExact(o);
    int rows = w->rows != NULL && Py_IS_TYPE(o, w->rows);
    if (!list && !rows && !PyDict_CheckExact(o))
        return JSON_DECLINE;
    if (depth >= JSON_DEPTH_CAP)
        return JSON_DECLINE;
    if (rows)
        return json_rows(w, o, depth);
    return list ? json_list(w, o, depth) : json_dict(w, o, depth);
}

/* dumps_json(obj, rows=None): json.dumps(obj, indent=2, sort_keys=True),
 * with each object of exactly the type `rows` written as its transcript
 * rows, or None where the writer declines. */
static PyObject *dumps_json(PyObject *Py_UNUSED(self), PyObject *args)
{
    PyObject *obj, *rows = Py_None;
    if (!PyArg_ParseTuple(args, "O|O", &obj, &rows))
        return NULL;
    if (rows != Py_None && !PyType_Check(rows)) {
        PyErr_SetString(PyExc_TypeError, "rows must be a type or None");
        return NULL;
    }
    JsonWriter w = {PyUnicode_New(JSON_FIRST_ALLOC, 127), 0, JSON_FIRST_ALLOC,
                    rows == Py_None ? NULL : (PyTypeObject *)rows};
    if (w.out == NULL)
        return NULL;
    int rc = json_value(&w, obj, 0);
    if (rc == JSON_OK && PyUnicode_Resize(&w.out, w.size) == 0)
        return w.out;
    Py_DECREF(w.out);
    if (rc == JSON_DECLINE)
        Py_RETURN_NONE;
    return NULL;
}

/* The JSONL reader: the start and end columns and each record's raw JSON
 * weight of a text that core.dumps_jsonl writes, or None. It accepts an
 * exact ASCII str whose lines, split on '\n' alone with the final newline
 * optional and none blank, are each byte for byte
 *     {"end": E, "id": I, "start": S}  or  {"end": E, "id": I, "start": S, "weight": W}
 * where E, I and S are canonical JSON integers of at most JSONL_DIGITS
 * digits (no leading zero, no -0), I is the line's index from 0 and S < E,
 * and W is such an integer that is not negative, or a "p/q" string of two
 * digit runs of at most JSONL_DIGITS digits each with q not 0. A first pass
 * checks every line and keeps C integers alone, so anything else declines
 * before a record is kept: core.loads_jsonl's chunk loop then reads the
 * text and raises every error. On such a text that loop reads the same
 * columns and the same raw weights, since json.loads gives each of these
 * lines as the one dict it spells. Through a small cache, records whose
 * weights are spelled alike mostly share one weight object. */
#define JSONL_DIGITS 18
/* Slots of the weight cache, a power of two. */
#define JSONL_CACHE 64

/* One record: its endpoints and its weight's text, text[w, w + wlen),
 * which is an integer's digits, the inside of a "p/q" string (`quoted`)
 * or, with wlen 0, absent. */
typedef struct {
    i64 s, e;
    Py_ssize_t w, wlen;
    int quoted;
} jsonl_record;

/* Whether text[*at, end) starts with the literal `lit`; moves *at past it. */
static inline int jsonl_literal(const Py_UCS1 *text, Py_ssize_t end, Py_ssize_t *at,
                                const char *lit, Py_ssize_t n)
{
    if (end - *at < n || memcmp(text + *at, lit, n) != 0)
        return 0;
    *at += n;
    return 1;
}

/* The length of the run of at most JSONL_DIGITS digits at text[*at], which
 * *at moves past; 0 if there is none or a longer one. */
static inline Py_ssize_t jsonl_digits(const Py_UCS1 *text, Py_ssize_t end, Py_ssize_t *at)
{
    Py_ssize_t from = *at;
    while (*at < end && (unsigned)(text[*at] - '0') < 10 && *at - from <= JSONL_DIGITS)
        ++*at;
    return *at - from > JSONL_DIGITS ? 0 : *at - from;
}

/* The value of the run of at most JSONL_DIGITS digits text[from, to). */
static inline i64 jsonl_value(const Py_UCS1 *text, Py_ssize_t from, Py_ssize_t to)
{
    i64 v = 0;
    for (Py_ssize_t i = from; i < to; i++)
        v = 10 * v + (text[i] - '0');
    return v;
}

/* Reads the canonical JSON integer at text[*at] into *v, a '-' first only
 * when `sign` allows it; 0 if there is none. */
static inline int jsonl_int(const Py_UCS1 *text, Py_ssize_t end, Py_ssize_t *at, int sign,
                            i64 *v)
{
    int neg = sign && *at < end && text[*at] == '-';
    *at += neg;
    Py_ssize_t from = *at, n = jsonl_digits(text, end, at);
    if (n == 0 || (n > 1 && text[from] == '0') || (neg && text[from] == '0'))
        return 0;
    *v = neg ? -jsonl_value(text, from, *at) : jsonl_value(text, from, *at);
    return 1;
}

/* Checks the record at text[*at] as line `index`'s and reads it into *r,
 * moving *at past it; 0 where the reader declines it. */
static int jsonl_line(const Py_UCS1 *text, Py_ssize_t end, Py_ssize_t *at, Py_ssize_t index,
                      jsonl_record *r)
{
    i64 id;
    if (!(jsonl_literal(text, end, at, "{\"end\": ", 8) && jsonl_int(text, end, at, 1, &r->e)
          && jsonl_literal(text, end, at, ", \"id\": ", 8) && jsonl_int(text, end, at, 1, &id)
          && jsonl_literal(text, end, at, ", \"start\": ", 11)
          && jsonl_int(text, end, at, 1, &r->s)))
        return 0;
    if (id != index || r->s >= r->e)
        return 0;
    r->wlen = 0;
    if (jsonl_literal(text, end, at, "}", 1))
        return 1;
    if (!jsonl_literal(text, end, at, ", \"weight\": ", 12))
        return 0;
    r->quoted = jsonl_literal(text, end, at, "\"", 1);
    r->w = *at;
    if (r->quoted) {
        Py_ssize_t q;
        if (jsonl_digits(text, end, at) == 0 || !jsonl_literal(text, end, at, "/", 1))
            return 0;
        q = *at;
        if (jsonl_digits(text, end, at) == 0 || !jsonl_literal(text, end, at, "\"", 1))
            return 0;
        while (text[q] == '0')
            q++;
        if (text[q] == '"')
            return 0; /* q is 0 */
        r->wlen = *at - 1 - r->w;
    } else {
        i64 w;
        if (!jsonl_int(text, end, at, 0, &w))
            return 0;
        r->wlen = *at - r->w;
    }
    return jsonl_literal(text, end, at, "}", 1);
}

/* The raw weight of record r: the int 1 when absent, else an int or a str
 * made once per text that the cache's slot still holds. `cache` borrows
 * the objects, which the caller's weight tuple owns. */
static PyObject *jsonl_weight(const Py_UCS1 *text, const jsonl_record *r, jsonl_record *slots,
                              PyObject **cache)
{
    if (r->wlen == 0)
        return PyLong_FromLong(1);
    const Py_UCS1 *w = text + r->w;
    u64 h = 14695981039346656037ULL; /* FNV-1a */
    for (Py_ssize_t i = 0; i < r->wlen; i++)
        h = (h ^ w[i]) * 1099511628211ULL;
    Py_ssize_t k = (Py_ssize_t)(h & (JSONL_CACHE - 1));
    /* An integer's digits never spell a "p/q" string's inside. */
    if (cache[k] != NULL && slots[k].wlen == r->wlen
        && memcmp(text + slots[k].w, w, r->wlen) == 0) {
        Py_INCREF(cache[k]);
        return cache[k];
    }
    PyObject *v;
    if (r->quoted) {
        v = PyUnicode_New(r->wlen, 127);
        if (v != NULL)
            memcpy(PyUnicode_1BYTE_DATA(v), w, r->wlen);
    } else {
        v = PyLong_FromLongLong(jsonl_value(text, r->w, r->w + r->wlen));
    }
    if (v != NULL) {
        slots[k] = *r;
        cache[k] = v;
    }
    return v;
}

/* (starts, ends, weights) as three tuples for a text the reader accepts,
 * else None; see above. */
static PyObject *jsonl_columns(PyObject *Py_UNUSED(self), PyObject *obj)
{
    if (!PyUnicode_CheckExact(obj) || !PyUnicode_IS_ASCII(obj))
        Py_RETURN_NONE;
    const Py_UCS1 *text = PyUnicode_1BYTE_DATA(obj);
    Py_ssize_t end = PyUnicode_GET_LENGTH(obj), n = 0, at = 0;
    if (end > 0 && text[end - 1] == '\n')
        end--; /* the final newline */
    Py_ssize_t lines = PyUnicode_GET_LENGTH(obj) == 0 ? 0 : 1;
    for (const Py_UCS1 *p = text; (p = memchr(p, '\n', end - (p - text))) != NULL; p++)
        lines++;
    jsonl_record *records = PyMem_New(jsonl_record, lines + 1);
    if (records == NULL)
        return PyErr_NoMemory();
    for (; n < lines; n++) {
        if (!jsonl_line(text, end, &at, n, &records[n]) || (at < end && text[at++] != '\n'))
            break;
    }
    if (n < lines) {
        PyMem_Free(records);
        Py_RETURN_NONE;
    }
    PyObject *out = NULL, *starts = PyTuple_New(n), *ends = PyTuple_New(n), *weights = PyTuple_New(n);
    jsonl_record slots[JSONL_CACHE];
    PyObject *cache[JSONL_CACHE] = {NULL};
    int ok = starts != NULL && ends != NULL && weights != NULL;
    for (Py_ssize_t i = 0; ok && i < n; i++) {
        PyObject *s = PyLong_FromLongLong(records[i].s), *e = PyLong_FromLongLong(records[i].e);
        PyObject *w = jsonl_weight(text, &records[i], slots, cache);
        /* A tuple frees the items it holds and skips the slots left NULL. */
        ok = s != NULL && e != NULL && w != NULL;
        PyTuple_SET_ITEM(starts, i, s);
        PyTuple_SET_ITEM(ends, i, e);
        PyTuple_SET_ITEM(weights, i, w);
    }
    if (ok)
        out = PyTuple_Pack(3, starts, ends, weights);
    Py_XDECREF(starts);
    Py_XDECREF(ends);
    Py_XDECREF(weights);
    PyMem_Free(records);
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
    {"dumps_json", dumps_json, METH_VARARGS,
     "json.dumps(obj, indent=2, sort_keys=True) in one pass, writing each object of exactly "
     "the type `rows` as its transcript rows, or None for a type it declines."},
    {"opt_members", opt_members, METH_VARARGS,
     "Member positions of the greedy (no weights) or DP optimum, or None where it declines."},
    {"jsonl_columns", jsonl_columns, METH_O,
     "(starts, ends, raw weights) of a text as core.dumps_jsonl writes it, or None."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef kernel_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_kernel",
    .m_doc = "Compiled policy loop, subset search, exact oracles, JSON writer and JSONL reader "
             "of revsel._engine.",
    .m_size = -1,
    .m_methods = kernel_methods,
};

PyMODINIT_FUNC PyInit__kernel(void)
{
    PyObject *module = PyModule_Create(&kernel_module);
    if (module != NULL
        && (PyModule_AddIntConstant(module, "JSON_DEPTH_CAP", JSON_DEPTH_CAP) < 0
            || PyModule_AddIntConstant(module, "JSON_FIRST_ALLOC", JSON_FIRST_ALLOC) < 0))
        Py_CLEAR(module);
    return module;
}
