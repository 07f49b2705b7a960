/* Compiled engine: permutation-trial loop, exhaustive subset search and the
 * indent-2 JSON writer.
 *
 * A CPython module that gcc alone builds. The trial loop matches the Python
 * policies it stands for (revsel.algorithms, replayed by harness._trials)
 * bit for bit: the permutation is revsel.rng's shuffle (same splitmix64
 * stream, same rejection sampling, same Fisher-Yates order) and the
 * memoryless draws are the policy's. The subset search matches its twin in
 * revsel._engine.fallback (same enumeration order); keep those two in
 * lockstep. Coordinates, weights and the acceptance fraction are read as
 * 64-bit integers, and an int that does not fit raises OverflowError: the
 * dispatchers in revsel._engine keep such inputs away from this module.
 * indent_json re-spaces the compact JSON text of the C encoder into
 * json.dumps(indent=2)'s layout; its fallback is json.dumps itself.
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
 * CALL_CONTROL (the trial loop decides the other modes itself). Inlined
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

/* Plays one trial's arrivals, in order, against an empty held set and
 * returns ALG: the final held count, or with `weighted` the final held
 * weight (order_w holds the arrivals' weights, held_w the members').
 * `memoryless` is mode == MEMORYLESS, and `draws` that mode's decision
 * stream.
 *
 * The held set is disjoint and sorted by start, so the members that
 * conflict with [s, e) are [bisect_right(held_e, s), bisect_left(held_s, e,
 * lo)). Both searches probe as bisect does. */
static inline __attribute__((always_inline)) u64
play(int weighted, int memoryless, int mode, const span *order, const i64 *order_w,
     Py_ssize_t n, i64 *held_s, i64 *held_e, i64 *held_w, u64 draws, u64 num, u64 den,
     const table *fl, const table *fr)
{
    Py_ssize_t h = 0;
    for (Py_ssize_t p = 0; p < n; p++) {
        i64 s = order[p].s, e = order[p].e;
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
        if (take == 0) {
            memmove(held_s + first + 1, held_s + first, (h - first) * sizeof(i64));
            memmove(held_e + first + 1, held_e + first, (h - first) * sizeof(i64));
            held_s[first] = s;
            held_e[first] = e;
            if (weighted) {
                memmove(held_w + first + 1, held_w + first, (h - first) * sizeof(i64));
                held_w[first] = order_w[p];
            }
            h++;
            continue;
        }
        if (mode == NEVER || (mode != ALWAYS && !memoryless &&
                              !replaces(mode, s, e, held_s, held_e, first, last, fl, fr)))
            continue;
        /* The arrival replaces the whole conflicting run. */
        held_s[first] = s;
        held_e[first] = e;
        if (weighted)
            held_w[first] = order_w[p];
        if (take > 1) {
            memmove(held_s + first + 1, held_s + last, (h - last) * sizeof(i64));
            memmove(held_e + first + 1, held_e + last, (h - last) * sizeof(i64));
            if (weighted)
                memmove(held_w + first + 1, held_w + last, (h - last) * sizeof(i64));
            h -= take - 1;
        }
    }
    if (!weighted)
        return (u64)h;
    /* The dispatchers keep weight sums below 2**62; unsigned addition keeps
     * any other sum defined. */
    u64 total = 0;
    for (Py_ssize_t i = 0; i < h; i++)
        total += (u64)held_w[i];
    return total;
}

/* The inputs and scratch arrays of one run_single_length_trials_raw call. */
typedef struct {
    PyObject *out;
    Py_ssize_t trials, n;
    u64 first, seed, num, den;
    const span *arrivals;
    const i64 *weights; /* NULL for unit weights */
    span *order;
    i64 *order_w, *held_s, *held_e, *held_w;
    const table *fl, *fr;
} job;

/* Runs every trial of `jb` into jb->out; -1 on error. Every call site passes
 * `weighted` and `memoryless` as constants, so that the inlined unit-weight
 * loop of the other modes carries no weight or draw code. The job's fields
 * are copied into locals, which the held-array stores cannot alias. */
static inline __attribute__((always_inline)) int
run_trials(int weighted, int memoryless, int mode, const job *jb)
{
    PyObject *out = jb->out;
    const Py_ssize_t trials = jb->trials, n = jb->n;
    const u64 first = jb->first, seed = jb->seed, num = jb->num, den = jb->den;
    const span *arrivals = jb->arrivals;
    const i64 *weights = jb->weights;
    span *order = jb->order;
    i64 *order_w = weighted ? jb->order_w : NULL;
    i64 *held_s = jb->held_s, *held_e = jb->held_e, *held_w = jb->held_w;
    const table *fl = jb->fl, *fr = jb->fr;
    for (Py_ssize_t t = 0; t < trials; t++) {
        /* Slot t holds trial first + t. Shuffling the arrivals with that
         * trial's draws plays them in permutation_raw(n, seed, first + t)
         * order; decisions draw from substream 2**32 + first + t, clear of
         * the permutation substreams. */
        const u64 trial = first + (u64)t;
        memcpy(order, arrivals, n * sizeof(span));
        if (weighted)
            memcpy(order_w, weights, n * sizeof(i64));
        shuffle(order, order_w, n, substream(seed, trial));
        u64 draws = memoryless ? substream(seed, ((u64)1 << 32) + trial) : 0;
        u64 alg = play(weighted, memoryless, mode, order, order_w, n, held_s, held_e, held_w,
                       draws, num, den, fl, fr);
        PyObject *v = PyLong_FromLongLong((i64)alg);
        if (v == NULL)
            return -1;
        PyList_SET_ITEM(out, t, v);
    }
    return 0;
}

static PyObject *run_single_length_trials_raw(PyObject *Py_UNUSED(self), PyObject *args)
{
    PyObject *starts, *ends, *flk, *flv, *frk, *frv, *seed_obj, *weights = NULL, *out = NULL;
    int mode, fld, frd;
    Py_ssize_t trials, first = 0;
    long long num = 0, den = 1;
    if (!PyArg_ParseTuple(args, "O!O!iO!O!pO!O!pnO|O!LLn", &PyList_Type, &starts,
                          &PyList_Type, &ends, &mode, &PyList_Type, &flk,
                          &PyList_Type, &flv, &fld, &PyList_Type, &frk,
                          &PyList_Type, &frv, &frd, &trials, &seed_obj,
                          &PyList_Type, &weights, &num, &den, &first))
        return NULL;
    if (den < 1 || num < 0) {
        PyErr_SetString(PyExc_ValueError, "acceptance fraction needs num >= 0 and den >= 1");
        return NULL;
    }
    if (first < 0) {
        PyErr_SetString(PyExc_ValueError, "the first trial index must be >= 0");
        return NULL;
    }
    u64 seed = PyLong_AsUnsignedLongLongMask(seed_obj);
    if (seed == (u64)-1 && PyErr_Occurred())
        return NULL;
    Py_ssize_t n = Py_MIN(PyList_GET_SIZE(starts), PyList_GET_SIZE(ends));
    /* An empty weights list means unit weights: a trial's ALG is then its
     * held count, and no weight is kept. */
    int weighted = weights != NULL && PyList_GET_SIZE(weights) > 0;
    if (weighted)
        n = Py_MIN(n, PyList_GET_SIZE(weights));
    span *arrivals = PyMem_New(span, n + 1), *order = PyMem_New(span, n + 1);
    i64 *held_s = PyMem_New(i64, n + 1), *held_e = PyMem_New(i64, n + 1);
    i64 *arrival_w = NULL, *order_w = NULL, *held_w = NULL;
    if (weighted) {
        arrival_w = PyMem_New(i64, n + 1);
        order_w = PyMem_New(i64, n + 1);
        held_w = PyMem_New(i64, n + 1);
    }
    table fl = {0}, fr = {0};
    if (arrivals == NULL || order == NULL || held_s == NULL || held_e == NULL ||
        (weighted && (arrival_w == NULL || order_w == NULL || held_w == NULL))) {
        PyErr_NoMemory();
        goto done;
    }
    if (read_table(flk, flv, fld, &fl) < 0 || read_table(frk, frv, frd, &fr) < 0)
        goto done;
    /* The held arrays are free until the first trial: read through them. */
    if (read_i64s(starts, n, held_s) < 0 || read_i64s(ends, n, held_e) < 0)
        goto done;
    for (Py_ssize_t i = 0; i < n; i++)
        arrivals[i] = (span){held_s[i], held_e[i]};
    if (weighted && read_i64s(weights, n, arrival_w) < 0)
        goto done;
    if (trials < 0)
        trials = 0;
    if ((out = PyList_New(trials)) == NULL)
        goto done;
    job jb = {out, trials, n, (u64)first, seed, (u64)num, (u64)den, arrivals, arrival_w, order,
              order_w, held_s, held_e, held_w, &fl, &fr};
    int status;
    if (mode == MEMORYLESS)
        status = weighted ? run_trials(1, 1, mode, &jb) : run_trials(0, 1, mode, &jb);
    else
        status = weighted ? run_trials(1, 0, mode, &jb) : run_trials(0, 0, mode, &jb);
    if (status < 0)
        Py_CLEAR(out);
done:
    PyMem_Free(arrivals);
    PyMem_Free(order);
    PyMem_Free(held_s);
    PyMem_Free(held_e);
    PyMem_Free(arrival_w);
    PyMem_Free(order_w);
    PyMem_Free(held_w);
    PyMem_Free(fl.keys);
    PyMem_Free(fl.bits);
    PyMem_Free(fr.keys);
    PyMem_Free(fr.bits);
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
    {"best_subset_scaled", best_subset_scaled, METH_VARARGS,
     "(best total weight, member bitmask) over all conflict-free subsets."},
    {"indent_json", indent_json, METH_O,
     "json.dumps(obj, indent=2, sort_keys=True) from obj's compact sorted encoding."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef kernel_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_kernel",
    .m_doc = "Compiled trial loop, subset search and JSON indenter of revsel._engine.",
    .m_size = -1,
    .m_methods = kernel_methods,
};

PyMODINIT_FUNC PyInit__kernel(void)
{
    return PyModule_Create(&kernel_module);
}
