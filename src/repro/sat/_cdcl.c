/*
 * Native search core of repro.sat.solver.CdclSolver.
 *
 * A line-for-line port of the search in repro.sat.solver.PythonCore,
 * which stays the reference: every decision, conflict and propagation
 * must come out the same, so the order-sensitive details are copied
 * exactly rather than improved:
 *
 *   - watch lists are compacted in place and visited in insertion order;
 *     a clause's literals are permuted exactly as the reference does;
 *   - the VSIDS heap reproduces CPython's heapq sift order on
 *     (-activity, var) tuples, including the lazy heap's stale entries;
 *   - activities are doubles bumped, decayed and rescaled (at 1e100) by
 *     the same operations, so the build must not contract them to FMAs;
 *   - learned-clause reduction sorts stably by (lbd, length).
 *
 * Plain C with no Python headers; repro.sat._native compiles it with
 * the system compiler and drives it through ctypes.  Literal codes are
 * the reference's: variable v is 2v (positive) and 2v+1 (negative).
 * A solve runs in slices: it returns CDCL_CLOCK every 64 conflicts, at
 * the reference's clock check, so the interpreter can check the timeout
 * and run signal handlers, and cdcl_resume continues the same search.
 */

#include <limits.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define UNASSIGNED (-1)
#define NO_REASON (-1)
/* Largest variable whose literal codes (2v, 2v+1) fit in an int. */
#define MAX_VAR ((INT_MAX >> 1) - 1)
/* Errors of the calls that take DIMACS literals. */
enum { ERR_ZERO = -1, ERR_RANGE = -2 };

enum { CDCL_SAT = 1, CDCL_UNSAT = 2, CDCL_UNKNOWN = 3, CDCL_CLOCK = 4,
       CDCL_REFUTED = 5 };

/* Clause header in the arena: size, lbd, mark; the literals follow. */
#define C_SIZE 0
#define C_LBD 1
#define C_MARK 2
#define C_HDR 3
enum { MARK_LOCKED = 1, MARK_DEAD = 2 };

typedef struct {
    int *data;
    int size, cap;
} IntVec;

typedef struct {
    double key; /* -activity when pushed */
    int var;
} HeapEntry;

/* The part of the solver that Python reads in place; it must stay first
   and match _Public in repro/sat/_native.py. */
typedef struct {
    int64_t conflicts, decisions, propagations, learned, deleted, restarts;
    int32_t n_vars, ok;
} Public;

typedef struct {
    Public pub;
    int var_cap;
    signed char *lit_value; /* by literal code: 1 true, 0 false, -1 unset */
    int *level, *reason, *phase; /* by variable; reason is a clause ref */
    double *activity;
    char *in_heap, *seen;
    int *level_stamp; /* by decision level, for counting the LBD */
    int stamp;
    IntVec *watches; /* by literal code */
    HeapEntry *heap;
    int heap_size, heap_cap;
    int *trail;
    int trail_size, qhead;
    IntVec trail_lim;
    IntVec arena, learnts;
    double var_inc, var_decay_inv;
    int64_t restart_base, reduce_base;
    /* scratch */
    IntVec learnt, minimised, scratch;
    /* the solve in progress */
    IntVec assumptions;
    int64_t max_conflicts, conflicts_here, luby_index, restart_budget,
        conflicts_since_restart, reduce_budget;
    int resume_pending;
    /* answers of the last solve */
    unsigned char *model;
    IntVec core;
} Solver;

static void *grow(void *ptr, size_t bytes)
{
    void *out = realloc(ptr, bytes ? bytes : 1);
    if (!out)
        abort();
    return out;
}

static void vec_push(IntVec *v, int x)
{
    if (v->size == v->cap) {
        v->cap = v->cap ? v->cap * 2 : 4;
        v->data = grow(v->data, (size_t)v->cap * sizeof(int));
    }
    v->data[v->size++] = x;
}

static void vec_free(IntVec *v)
{
    free(v->data);
    v->data = NULL;
    v->size = v->cap = 0;
}

/* ------------------------------------------------------------------ */
/* CPython heapq on (key, var) tuples                                  */
/* ------------------------------------------------------------------ */

static inline int entry_lt(HeapEntry a, HeapEntry b)
{
    /* Tuple order: the first unequal field decides (-0.0 == 0.0). */
    if (a.key != b.key)
        return a.key < b.key;
    return a.var < b.var;
}

static void heap_siftdown(Solver *s, int startpos, int pos)
{
    HeapEntry *heap = s->heap;
    HeapEntry item = heap[pos];
    while (pos > startpos) {
        int parentpos = (pos - 1) >> 1;
        if (!entry_lt(item, heap[parentpos]))
            break;
        heap[pos] = heap[parentpos];
        pos = parentpos;
    }
    heap[pos] = item;
}

static void heap_push(Solver *s, double key, int var)
{
    if (s->heap_size == s->heap_cap) {
        s->heap_cap = s->heap_cap ? s->heap_cap * 2 : 64;
        s->heap = grow(s->heap, (size_t)s->heap_cap * sizeof(HeapEntry));
    }
    s->heap[s->heap_size].key = key;
    s->heap[s->heap_size].var = var;
    heap_siftdown(s, 0, s->heap_size++);
}

static HeapEntry heap_pop(Solver *s)
{
    HeapEntry *heap = s->heap;
    HeapEntry last = heap[--s->heap_size];
    if (s->heap_size == 0)
        return last;
    HeapEntry top = heap[0];
    heap[0] = last;
    /* Bubble the smaller child up to a leaf, then sift the item back. */
    int endpos = s->heap_size, pos = 0, limit = endpos >> 1;
    while (pos < limit) {
        int childpos = 2 * pos + 1;
        if (childpos + 1 < endpos &&
            !entry_lt(heap[childpos], heap[childpos + 1]))
            childpos++;
        heap[pos] = heap[childpos];
        pos = childpos;
    }
    heap[pos] = last;
    heap_siftdown(s, 0, pos);
    return top;
}

/* ------------------------------------------------------------------ */
/* variables, trail                                                    */
/* ------------------------------------------------------------------ */

static void reserve_vars(Solver *s, int n_vars)
{
    if (n_vars + 2 <= s->var_cap)
        return;
    int cap = s->var_cap ? s->var_cap : 64;
    while (cap < n_vars + 2)
        cap *= 2;
    size_t c = (size_t)cap;
    s->lit_value = grow(s->lit_value, 2 * c);
    s->level = grow(s->level, c * sizeof(int));
    s->reason = grow(s->reason, c * sizeof(int));
    s->phase = grow(s->phase, c * sizeof(int));
    s->activity = grow(s->activity, c * sizeof(double));
    s->in_heap = grow(s->in_heap, c);
    s->seen = grow(s->seen, c);
    s->level_stamp = grow(s->level_stamp, c * sizeof(int));
    s->trail = grow(s->trail, c * sizeof(int));
    s->model = grow(s->model, c);
    s->watches = grow(s->watches, 2 * c * sizeof(IntVec));
    memset(s->level_stamp + s->var_cap, 0, (c - s->var_cap) * sizeof(int));
    memset(s->watches + 2 * (size_t)s->var_cap, 0,
           2 * (c - s->var_cap) * sizeof(IntVec));
    s->var_cap = cap;
}

int cdcl_new_var(Solver *s)
{
    int var = s->pub.n_vars + 1;
    reserve_vars(s, var);
    s->pub.n_vars = var;
    s->lit_value[2 * var] = UNASSIGNED;
    s->lit_value[2 * var + 1] = UNASSIGNED;
    s->level[var] = 0;
    s->reason[var] = NO_REASON;
    s->phase[var] = (var << 1) | 1;
    s->activity[var] = 0.0;
    s->in_heap[var] = 1;
    s->seen[var] = 0;
    heap_push(s, -0.0, var);
    return var;
}

static void ensure_vars(Solver *s, int max_var)
{
    while (s->pub.n_vars < max_var)
        cdcl_new_var(s);
}

static inline void enqueue(Solver *s, int code, int reason)
{
    int var = code >> 1;
    s->lit_value[code] = 1;
    s->lit_value[code ^ 1] = 0;
    s->level[var] = s->trail_lim.size;
    s->reason[var] = reason;
    s->phase[var] = code;
    s->trail[s->trail_size++] = code;
}

static void backtrack(Solver *s, int target_level)
{
    if (s->trail_lim.size <= target_level)
        return;
    int boundary = s->trail_lim.data[target_level];
    for (int i = s->trail_size - 1; i >= boundary; i--) {
        int code = s->trail[i];
        int var = code >> 1;
        s->lit_value[code] = UNASSIGNED;
        s->lit_value[code ^ 1] = UNASSIGNED;
        if (!s->in_heap[var]) {
            heap_push(s, -s->activity[var], var);
            s->in_heap[var] = 1;
        }
    }
    s->trail_size = boundary;
    s->trail_lim.size = target_level;
    s->qhead = boundary;
}

/* ------------------------------------------------------------------ */
/* clauses, propagation                                                */
/* ------------------------------------------------------------------ */

static int new_clause(Solver *s, const int *lits, int size, int lbd)
{
    IntVec *arena = &s->arena;
    int need = arena->size + C_HDR + size;
    if (need > arena->cap) {
        int cap = arena->cap ? arena->cap : 1024;
        while (cap < need)
            cap *= 2;
        arena->data = grow(arena->data, (size_t)cap * sizeof(int));
        arena->cap = cap;
    }
    int cref = arena->size;
    int *c = arena->data + cref;
    c[C_SIZE] = size;
    c[C_LBD] = lbd;
    c[C_MARK] = 0;
    memcpy(c + C_HDR, lits, (size_t)size * sizeof(int));
    arena->size = need;
    vec_push(&s->watches[lits[0]], cref);
    vec_push(&s->watches[lits[1]], cref);
    return cref;
}

/* Unit-propagate the trail; returns a conflicting clause ref or -1. */
static int propagate(Solver *s)
{
    signed char *lit_value = s->lit_value;
    int *arena = s->arena.data;
    int *trail = s->trail;
    int current_level = s->trail_lim.size;
    int start = s->qhead, qhead = s->qhead;
    while (qhead < s->trail_size) {
        int falsified = trail[qhead] ^ 1;
        qhead++;
        IntVec *watch_list = &s->watches[falsified];
        int *ws = watch_list->data;
        int n = watch_list->size, i, j = 0;
        for (i = 0; i < n; i++) {
            int cref = ws[i];
            int *lits = arena + cref + C_HDR;
            /* Normalise: the falsified watch moves to position 1. */
            int other = lits[0];
            if (other == falsified) {
                other = lits[1];
                lits[0] = other;
                lits[1] = falsified;
            }
            int value = lit_value[other];
            if (value == 1) {
                ws[j++] = cref;
                continue;
            }
            /* Look for a replacement watch: true or unassigned. */
            int size = arena[cref + C_SIZE], k;
            for (k = 2; k < size; k++) {
                int lk = lits[k];
                if (lit_value[lk] != 0) {
                    lits[1] = lk;
                    lits[k] = falsified;
                    vec_push(&s->watches[lk], cref);
                    break;
                }
            }
            if (k < size)
                continue;
            /* No replacement: clause is unit or conflicting. */
            ws[j++] = cref;
            if (value != 0) {
                int var = other >> 1;
                lit_value[other] = 1;
                lit_value[other ^ 1] = 0;
                s->level[var] = current_level;
                s->reason[var] = cref;
                s->phase[var] = other;
                trail[s->trail_size++] = other;
            } else {
                /* The unvisited watchers follow the kept ones. */
                for (i++; i < n; i++)
                    ws[j++] = ws[i];
                watch_list->size = j;
                s->pub.propagations += qhead - start;
                s->qhead = s->trail_size;
                return cref;
            }
        }
        watch_list->size = j;
    }
    s->pub.propagations += qhead - start;
    s->qhead = qhead;
    return -1;
}

/* Add a clause of DIMACS literals at level 0: 1 added or redundant,
   0 the formula became trivially UNSAT, or ERR_*. */
static int add_clause(Solver *s, const int *lits, int n)
{
    if (!s->pub.ok)
        return 0;
    if (s->trail_lim.size)
        backtrack(s, 0);
    IntVec *codes = &s->scratch;
    codes->size = 0;
    /* The clause's codes so far are marked in the (otherwise all-zero)
       per-variable seen buffer: bit 1 positive, bit 2 negative. */
    int result = 1;
    for (int i = 0; i < n; i++) {
        int lit = lits[i];
        int64_t magnitude = lit < 0 ? -(int64_t)lit : lit;
        if (magnitude == 0 || magnitude > MAX_VAR) {
            result = magnitude ? ERR_RANGE : ERR_ZERO;
            break;
        }
        int var = (int)magnitude;
        if (var > s->pub.n_vars)
            ensure_vars(s, var);
        int code = (var << 1) | (lit < 0);
        int bit = 1 << (code & 1);
        if (s->seen[var] & (bit ^ 3)) {
            result = 2; /* tautology */
            break;
        }
        if (s->seen[var] & bit)
            continue;
        int value = s->lit_value[code];
        if (value == 1) {
            result = 2; /* already satisfied at top level */
            break;
        }
        if (value == 0)
            continue; /* falsified at top level; drop the literal */
        s->seen[var] |= bit;
        vec_push(codes, code);
    }
    for (int i = 0; i < codes->size; i++)
        s->seen[codes->data[i] >> 1] = 0;
    if (result != 1)
        return result < 0 ? result : 1;
    if (codes->size == 0) {
        s->pub.ok = 0;
        return 0;
    }
    if (codes->size == 1) {
        enqueue(s, codes->data[0], NO_REASON);
        s->pub.ok = propagate(s) < 0;
        return s->pub.ok;
    }
    new_clause(s, codes->data, codes->size, 0);
    return 1;
}

/* ------------------------------------------------------------------ */
/* conflict analysis                                                   */
/* ------------------------------------------------------------------ */

/* First-UIP analysis into s->minimised (asserting literal first);
   returns the backjump level. */
static int analyze(Solver *s, int conflict)
{
    int *trail = s->trail, *level = s->level, *reason = s->reason;
    char *seen = s->seen;
    double *activity = s->activity;
    double var_inc = s->var_inc;
    int current_level = s->trail_lim.size;
    IntVec *learnt = &s->learnt;
    learnt->size = 0;
    vec_push(learnt, 0);
    int counter = 0, p = -1, index = s->trail_size - 1, cref = conflict;

    for (;;) {
        int *c = s->arena.data + cref;
        int size = c[C_SIZE];
        for (int i = 0; i < size; i++) {
            int q = c[C_HDR + i];
            if (q == p)
                continue;
            int var = q >> 1;
            if (!seen[var]) {
                int var_level = level[var];
                if (var_level > 0) {
                    seen[var] = 1;
                    double act = activity[var] + var_inc;
                    activity[var] = act;
                    if (act > 1e100) {
                        for (int v = 0; v <= s->pub.n_vars; v++)
                            activity[v] = activity[v] * 1e-100;
                        var_inc *= 1e-100;
                        act = activity[var];
                    }
                    heap_push(s, -act, var);
                    s->in_heap[var] = 1;
                    if (var_level >= current_level)
                        counter++;
                    else
                        vec_push(learnt, q);
                }
            }
        }
        /* Walk the trail back to the next marked variable. */
        while (!seen[trail[index] >> 1])
            index--;
        p = trail[index];
        index--;
        int var = p >> 1;
        seen[var] = 0;
        counter--;
        if (counter == 0) {
            learnt->data[0] = p ^ 1;
            break;
        }
        cref = reason[var];
    }
    s->var_inc = var_inc;

    /* Cheap minimisation: drop a literal whose reason's other literals
       are all marked (in the clause) or fixed at level 0. */
    IntVec *out = &s->minimised;
    out->size = 0;
    vec_push(out, learnt->data[0]);
    for (int i = 1; i < learnt->size; i++) {
        int q = learnt->data[i], q_var = q >> 1, r = reason[q_var];
        if (r == NO_REASON) {
            vec_push(out, q);
            continue;
        }
        int *c = s->arena.data + r;
        for (int k = 0; k < c[C_SIZE]; k++) {
            int var = c[C_HDR + k] >> 1;
            if (var != q_var && !seen[var] && level[var] > 0) {
                vec_push(out, q);
                break;
            }
        }
    }
    for (int i = 1; i < learnt->size; i++)
        seen[learnt->data[i] >> 1] = 0;

    /* Backjump to the highest level in the clause (first one found),
       whose literal moves to position 1. */
    int back_level = 0;
    if (out->size > 1) {
        int *m = out->data, max_idx = 1;
        back_level = level[m[1] >> 1];
        for (int idx = 2; idx < out->size; idx++) {
            int var_level = level[m[idx] >> 1];
            if (var_level > back_level) {
                back_level = var_level;
                max_idx = idx;
            }
        }
        int tmp = m[1];
        m[1] = m[max_idx];
        m[max_idx] = tmp;
    }
    return back_level;
}

/* Assumption core of a failed assumption (MiniSat's analyzeFinal) into
   s->core, as DIMACS literals. */
static void analyze_final(Solver *s, int failed_code)
{
    IntVec *core = &s->core;
    core->size = 0;
    vec_push(core, failed_code);
    if (s->trail_lim.size) {
        char *seen = calloc((size_t)s->pub.n_vars + 1, 1);
        if (!seen)
            abort();
        seen[failed_code >> 1] = 1;
        for (int idx = s->trail_size - 1; idx >= s->trail_lim.data[0]; idx--) {
            int p = s->trail[idx], var = p >> 1;
            if (!seen[var])
                continue;
            seen[var] = 0;
            int r = s->reason[var];
            if (r == NO_REASON) {
                vec_push(core, p);
            } else {
                int *c = s->arena.data + r;
                for (int k = 0; k < c[C_SIZE]; k++) {
                    int q = c[C_HDR + k];
                    if (s->level[q >> 1] > 0)
                        seen[q >> 1] = 1;
                }
            }
        }
        free(seen);
    }
    for (int i = 0; i < core->size; i++) {
        int code = core->data[i];
        core->data[i] = code & 1 ? -(code >> 1) : code >> 1;
    }
}

static void record_learnt(Solver *s)
{
    int *m = s->minimised.data, size = s->minimised.size;
    if (size == 1) {
        enqueue(s, m[0], NO_REASON);
        return;
    }
    /* The asserting literal is unassigned; its stale level is the
       conflict level, which the LBD counts. */
    int stamp = ++s->stamp, lbd = 0;
    for (int i = 0; i < size; i++) {
        int lvl = s->level[m[i] >> 1];
        if (s->level_stamp[lvl] != stamp) {
            s->level_stamp[lvl] = stamp;
            lbd++;
        }
    }
    int cref = new_clause(s, m, size, lbd);
    vec_push(&s->learnts, cref);
    s->pub.learned++;
    enqueue(s, m[0], cref);
}

/* ------------------------------------------------------------------ */
/* decisions, reduction                                                */
/* ------------------------------------------------------------------ */

static int pick_branch_var(Solver *s)
{
    while (s->heap_size) {
        HeapEntry e = heap_pop(s);
        int var = e.var;
        if (s->lit_value[var << 1] != UNASSIGNED) {
            s->in_heap[var] = 0;
        } else if (-e.key == s->activity[var]) {
            s->in_heap[var] = 0;
            return var;
        }
        /* else: a stale entry of an unassigned variable.  It stays
           marked in the heap, so it re-enters only when bumped. */
    }
    /* Heap exhausted: linear scan. */
    for (int var = 1; var <= s->pub.n_vars; var++)
        if (s->lit_value[var << 1] == UNASSIGNED)
            return var;
    return 0;
}

typedef struct {
    int lbd, size, order, cref;
} Ranked;

static int rank_cmp(const void *pa, const void *pb)
{
    /* (lbd, size), then learnt order: a stable sort. */
    const Ranked *a = pa, *b = pb;
    if (a->lbd != b->lbd)
        return a->lbd < b->lbd ? -1 : 1;
    if (a->size != b->size)
        return a->size < b->size ? -1 : 1;
    return (a->order > b->order) - (a->order < b->order);
}

static void filter_watches(Solver *s, int code)
{
    IntVec *w = &s->watches[code];
    int *arena = s->arena.data, j = 0;
    for (int i = 0; i < w->size; i++)
        if (!(arena[w->data[i] + C_MARK] & MARK_DEAD))
            w->data[j++] = w->data[i];
    w->size = j;
}

/* Drop the worst half of the learned clauses, keeping binary, LBD<=2
   and locked ones; see PythonCore._reduce_db. */
static void reduce_db(Solver *s)
{
    int *arena = s->arena.data;
    for (int i = 0; i < s->trail_size; i++) {
        int r = s->reason[s->trail[i] >> 1];
        if (r != NO_REASON)
            arena[r + C_MARK] |= MARK_LOCKED;
    }
    int n = s->learnts.size;
    Ranked *ranked = malloc(((size_t)n + 1) * sizeof(Ranked));
    if (!ranked)
        abort();
    for (int i = 0; i < n; i++) {
        int cref = s->learnts.data[i];
        ranked[i].lbd = arena[cref + C_LBD];
        ranked[i].size = arena[cref + C_SIZE];
        ranked[i].order = i;
        ranked[i].cref = cref;
    }
    qsort(ranked, (size_t)n, sizeof(Ranked), rank_cmp);
    int64_t dead = 0;
    for (int i = n / 2; i < n; i++) {
        int *c = arena + ranked[i].cref;
        if (c[C_LBD] <= 2 || c[C_SIZE] <= 2 || (c[C_MARK] & MARK_LOCKED))
            continue;
        c[C_MARK] |= MARK_DEAD;
        dead++;
    }
    free(ranked);
    for (int i = 0; i < s->trail_size; i++) {
        int r = s->reason[s->trail[i] >> 1];
        if (r != NO_REASON)
            arena[r + C_MARK] &= ~MARK_LOCKED;
    }
    /* Dead clauses leave their two watch lists; the rest keep order. */
    char *watched = calloc(2 * ((size_t)s->pub.n_vars + 1), 1);
    if (!watched)
        abort();
    for (int i = 0; i < n; i++) {
        int *c = arena + s->learnts.data[i];
        if (!(c[C_MARK] & MARK_DEAD))
            continue;
        for (int k = C_HDR; k < C_HDR + 2; k++) {
            if (!watched[c[k]]) {
                watched[c[k]] = 1;
                filter_watches(s, c[k]);
            }
        }
    }
    free(watched);
    int j = 0;
    for (int i = 0; i < n; i++) {
        int cref = s->learnts.data[i];
        if (!(arena[cref + C_MARK] & MARK_DEAD))
            s->learnts.data[j++] = cref;
    }
    s->learnts.size = j;
    s->pub.deleted += dead;
}

/* ------------------------------------------------------------------ */
/* search                                                              */
/* ------------------------------------------------------------------ */

static int64_t luby(int64_t i)
{
    int k = 1;
    while (((int64_t)1 << (k + 1)) - 1 <= i)
        k++;
    while (i > ((int64_t)1 << k) - 1) {
        i -= ((int64_t)1 << k) - 1;
        k = 1;
        while (((int64_t)1 << (k + 1)) - 1 <= i)
            k++;
    }
    return k > 0 ? (int64_t)1 << (k - 1) : 1;
}

static int search(Solver *s)
{
    if (s->resume_pending) {
        s->resume_pending = 0;
        goto after_clock;
    }
    for (;;) {
        int conflict = propagate(s);
        if (conflict >= 0) {
            s->pub.conflicts++;
            s->conflicts_here++;
            s->conflicts_since_restart++;
            if (s->trail_lim.size == 0) {
                s->pub.ok = 0;
                s->core.size = 0;
                return CDCL_UNSAT;
            }
            int back_level = analyze(s, conflict);
            backtrack(s, back_level);
            record_learnt(s);
            s->var_inc *= s->var_decay_inv;
            if (s->conflicts_here >= s->max_conflicts) {
                backtrack(s, 0);
                return CDCL_UNKNOWN;
            }
            if (s->conflicts_here % 64 == 0) {
                s->resume_pending = 1;
                return CDCL_CLOCK;
            }
        after_clock:
            if (s->learnts.size > s->reduce_budget) {
                reduce_db(s);
                s->reduce_budget += 1000;
            }
            if (s->conflicts_since_restart >= s->restart_budget) {
                s->pub.restarts++;
                s->luby_index++;
                s->restart_budget = s->restart_base * luby(s->luby_index);
                s->conflicts_since_restart = 0;
                backtrack(s, 0);
            }
            continue;
        }

        /* Assumption handling: decide the first unassigned assumption. */
        int decided = 0;
        for (int i = 0; i < s->assumptions.size; i++) {
            int code = s->assumptions.data[i];
            int value = s->lit_value[code];
            if (value == 0) {
                analyze_final(s, code);
                backtrack(s, 0);
                return CDCL_UNSAT;
            }
            if (value == UNASSIGNED) {
                vec_push(&s->trail_lim, s->trail_size);
                enqueue(s, code, NO_REASON);
                decided = 1;
                break;
            }
        }
        if (decided)
            continue;
        /* Every assumption holds: branch on the saved polarity. */
        int var = pick_branch_var(s);
        if (var == 0) {
            for (int v = 0; v <= s->pub.n_vars; v++)
                s->model[v] = s->lit_value[v << 1] == 1;
            backtrack(s, 0);
            return CDCL_SAT;
        }
        s->pub.decisions++;
        vec_push(&s->trail_lim, s->trail_size);
        enqueue(s, s->phase[var], NO_REASON);
    }
}

/* ------------------------------------------------------------------ */
/* the ctypes interface                                                */
/* ------------------------------------------------------------------ */

Solver *cdcl_new(double var_decay_inv, int64_t restart_base,
                 int64_t reduce_base)
{
    Solver *s = calloc(1, sizeof(Solver));
    if (!s)
        return NULL;
    s->pub.ok = 1;
    s->var_inc = 1.0;
    s->var_decay_inv = var_decay_inv;
    s->restart_base = restart_base;
    s->reduce_base = reduce_base;
    reserve_vars(s, 0);
    s->lit_value[0] = s->lit_value[1] = UNASSIGNED;
    s->level[0] = 0;
    s->reason[0] = NO_REASON;
    s->phase[0] = 0;
    s->activity[0] = 0.0;
    s->in_heap[0] = 0;
    s->seen[0] = 0;
    return s;
}

void cdcl_free(Solver *s)
{
    if (!s)
        return;
    for (int code = 0; code < 2 * s->var_cap; code++)
        free(s->watches[code].data);
    free(s->lit_value);
    free(s->level);
    free(s->reason);
    free(s->phase);
    free(s->activity);
    free(s->in_heap);
    free(s->seen);
    free(s->level_stamp);
    free(s->trail);
    free(s->model);
    free(s->watches);
    free(s->heap);
    vec_free(&s->trail_lim);
    vec_free(&s->arena);
    vec_free(&s->learnts);
    vec_free(&s->learnt);
    vec_free(&s->minimised);
    vec_free(&s->scratch);
    vec_free(&s->assumptions);
    vec_free(&s->core);
    free(s);
}

int cdcl_add_clause(Solver *s, const int *lits, int n)
{
    return add_clause(s, lits, n);
}

/* Add n clauses, flattened, after ensuring max_var variables: 1 ok,
   0 the formula is UNSAT, or ERR_*. */
int cdcl_add_clauses(Solver *s, const int *flat, const int *lengths, int n,
                     int max_var)
{
    if (max_var > MAX_VAR)
        return ERR_RANGE;
    ensure_vars(s, max_var);
    for (int i = 0; i < n; i++) {
        if (!s->pub.ok)
            return 0;
        int status = add_clause(s, flat, lengths[i]);
        if (status < 0)
            return status;
        flat += lengths[i];
    }
    return s->pub.ok;
}

/* Start a solve under n assumption literals; returns a CDCL_* status
   or ERR_RANGE.  CDCL_REFUTED is UNSAT found before the search. */
int cdcl_solve(Solver *s, const int *assumptions, int n, int64_t max_conflicts)
{
    s->resume_pending = 0;
    s->core.size = 0;
    if (!s->pub.ok)
        return CDCL_REFUTED;
    s->assumptions.size = 0;
    for (int i = 0; i < n; i++) {
        int lit = assumptions[i];
        int64_t magnitude = lit < 0 ? -(int64_t)lit : lit;
        if (magnitude > MAX_VAR)
            return ERR_RANGE;
        ensure_vars(s, (int)magnitude);
        vec_push(&s->assumptions, ((int)magnitude << 1) | (lit < 0));
    }
    backtrack(s, 0);
    if (propagate(s) >= 0) {
        s->pub.ok = 0;
        return CDCL_REFUTED;
    }
    s->max_conflicts = max_conflicts;
    s->conflicts_here = 0;
    s->luby_index = 1;
    s->restart_budget = s->restart_base * luby(1);
    s->conflicts_since_restart = 0;
    s->reduce_budget = s->reduce_base;
    return search(s);
}

/* Continue a solve that returned CDCL_CLOCK. */
int cdcl_resume(Solver *s)
{
    return search(s);
}

/* Abandon a solve that returned CDCL_CLOCK (the timeout expired). */
void cdcl_stop(Solver *s)
{
    s->resume_pending = 0;
    backtrack(s, 0);
}

/* Model of the last CDCL_SAT answer: n_vars + 1 bytes, index 0 unused. */
const unsigned char *cdcl_model(Solver *s)
{
    return s->model;
}

/* Failed-assumption core of the last CDCL_UNSAT answer. */
const int *cdcl_core(Solver *s, int *size)
{
    *size = s->core.size;
    return s->core.data;
}
