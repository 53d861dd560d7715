/* Compiled event scheduler for the simulator: Engine("native").
 *
 * NativeEngine mirrors repro.sim.engine.Engine: a single binary heap of
 * (time, seq, callback, args) events kept as a C struct array (no
 * per-event tuple allocation, no rich-comparison calls in the heap),
 * with callbacks dispatched through the vectorcall protocol.  Events
 * fire in exact (time, seq) order, so results are bit-identical to the
 * pure-Python heap scheduler (the determinism oracle) — the contract
 * the golden corpora pin.  Everything the callbacks do (routers, input
 * queues, links, controllers) stays in Python and is shared with the
 * heap scheduler.
 *
 * Built in-tree by ``python -m repro.sim.native_build`` (gcc + the
 * CPython headers, no third-party dependencies); loaded lazily by
 * repro.sim.native so the pure-Python install never imports it.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

/* Looked up once at module init. */
static PyObject *SimulationError;  /* repro.errors.SimulationError */

/* Interned names used by the traced dispatch path. */
static PyObject *str_qualname, *str_engine_event;

/* ================================================================== */
/* NativeEngine                                                        */
/* ================================================================== */

typedef struct {
    long long time;
    unsigned long long seq;
    PyObject *cb;
    PyObject *args;  /* always a tuple */
} event_t;

typedef struct {
    PyObject_HEAD
    event_t *heap;
    Py_ssize_t size;
    Py_ssize_t cap;
    long long now;
    unsigned long long seq;
    Py_ssize_t pending;          /* same batch-settled semantics as Engine */
    Py_ssize_t events_processed;
    int running;
    int stop;                    /* request_stop() latch */
    PyObject *tracer;
} NativeEngine;

static int
heap_reserve(NativeEngine *self, Py_ssize_t need)
{
    if (need <= self->cap)
        return 0;
    Py_ssize_t cap = self->cap ? self->cap * 2 : 256;
    if (cap < need)
        cap = need;
    event_t *heap = PyMem_Realloc(self->heap, (size_t)cap * sizeof(event_t));
    if (heap == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    self->heap = heap;
    self->cap = cap;
    return 0;
}

/* key(a) < key(b) on (time, seq) */
#define EV_LT(a, b) \
    ((a).time < (b).time || ((a).time == (b).time && (a).seq < (b).seq))

static void
heap_sift_up(event_t *heap, Py_ssize_t pos)
{
    event_t item = heap[pos];
    while (pos > 0) {
        Py_ssize_t parent = (pos - 1) >> 1;
        if (!EV_LT(item, heap[parent]))
            break;
        heap[pos] = heap[parent];
        pos = parent;
    }
    heap[pos] = item;
}

static void
heap_sift_down(event_t *heap, Py_ssize_t size, Py_ssize_t pos)
{
    event_t item = heap[pos];
    for (;;) {
        Py_ssize_t child = 2 * pos + 1;
        if (child >= size)
            break;
        if (child + 1 < size && EV_LT(heap[child + 1], heap[child]))
            child += 1;
        if (!EV_LT(heap[child], item))
            break;
        heap[pos] = heap[child];
        pos = child;
    }
    heap[pos] = item;
}

/* Push an event; takes new references to cb and args. */
static int
engine_push(NativeEngine *self, long long time, PyObject *cb, PyObject *args)
{
    if (heap_reserve(self, self->size + 1) < 0)
        return -1;
    event_t *slot = &self->heap[self->size];
    slot->time = time;
    slot->seq = self->seq++;
    Py_INCREF(cb);
    slot->cb = cb;
    Py_INCREF(args);
    slot->args = args;
    heap_sift_up(self->heap, self->size);
    self->size += 1;
    self->pending += 1;
    return 0;
}

static PyObject *
Engine_schedule(NativeEngine *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs < 2) {
        PyErr_SetString(PyExc_TypeError,
                        "schedule(delay, callback, *args) takes at least 2 arguments");
        return NULL;
    }
    long long delay = PyLong_AsLongLong(args[0]);
    if (delay == -1 && PyErr_Occurred())
        return NULL;
    if (delay < 0)
        return PyErr_Format(SimulationError,
                            "negative delay %lld scheduled at t=%lld",
                            delay, self->now);
    PyObject *extra = PyTuple_New(nargs - 2);
    if (extra == NULL)
        return NULL;
    for (Py_ssize_t i = 2; i < nargs; i++) {
        Py_INCREF(args[i]);
        PyTuple_SET_ITEM(extra, i - 2, args[i]);
    }
    int rc = engine_push(self, self->now + delay, args[1], extra);
    Py_DECREF(extra);
    if (rc < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
Engine_schedule_at(NativeEngine *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs < 2) {
        PyErr_SetString(PyExc_TypeError,
                        "schedule_at(time, callback, *args) takes at least 2 arguments");
        return NULL;
    }
    long long time = PyLong_AsLongLong(args[0]);
    if (time == -1 && PyErr_Occurred())
        return NULL;
    if (time < self->now)
        return PyErr_Format(SimulationError,
                            "event scheduled in the past: t=%lld < now=%lld",
                            time, self->now);
    PyObject *extra = PyTuple_New(nargs - 2);
    if (extra == NULL)
        return NULL;
    for (Py_ssize_t i = 2; i < nargs; i++) {
        Py_INCREF(args[i]);
        PyTuple_SET_ITEM(extra, i - 2, args[i]);
    }
    int rc = engine_push(self, time, args[1], extra);
    Py_DECREF(extra);
    if (rc < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
Engine_schedule_bound(NativeEngine *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs < 2 || nargs > 3) {
        PyErr_SetString(PyExc_TypeError,
                        "schedule_bound(delay, callback, args=()) takes 2 or 3 arguments");
        return NULL;
    }
    long long delay = PyLong_AsLongLong(args[0]);
    if (delay == -1 && PyErr_Occurred())
        return NULL;
    if (nargs == 3) {
        if (!PyTuple_Check(args[2])) {
            PyErr_SetString(PyExc_TypeError, "schedule_bound args must be a tuple");
            return NULL;
        }
        if (engine_push(self, self->now + delay, args[1], args[2]) < 0)
            return NULL;
        Py_RETURN_NONE;
    }
    PyObject *extra = PyTuple_New(0);
    if (extra == NULL)
        return NULL;
    int rc = engine_push(self, self->now + delay, args[1], extra);
    Py_DECREF(extra);
    if (rc < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
Engine_run(NativeEngine *self, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"until", "max_events", NULL};
    PyObject *until_obj = Py_None, *max_obj = Py_None;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "|OO", kwlist,
                                     &until_obj, &max_obj))
        return NULL;
    int bounded = until_obj != Py_None;
    long long until = 0;
    if (bounded) {
        until = PyLong_AsLongLong(until_obj);
        if (until == -1 && PyErr_Occurred())
            return NULL;
    }
    int limited = max_obj != Py_None;
    long long max_events = 0;
    if (limited) {
        max_events = PyLong_AsLongLong(max_obj);
        if (max_events == -1 && PyErr_Occurred())
            return NULL;
    }
    PyObject *tracer =
        (self->tracer != NULL && self->tracer != Py_None) ? self->tracer : NULL;

    Py_ssize_t processed = 0;
    int error = 0;
    self->running = 1;
    while (self->size) {
        if (bounded && self->heap[0].time > until) {
            self->now = until;
            goto done;
        }
        /* pop the minimum (time, seq) event */
        event_t ev = self->heap[0];
        self->size -= 1;
        if (self->size) {
            self->heap[0] = self->heap[self->size];
            heap_sift_down(self->heap, self->size, 0);
        }
        self->now = ev.time;
        /* counted once popped, so the settled pending counter stays
         * exact when the tracer or the callback raises */
        processed += 1;
        if (tracer != NULL) {
            PyObject *label = PyObject_GetAttr(ev.cb, str_qualname);
            if (label == NULL) {
                PyErr_Clear();
                label = PyObject_Repr(ev.cb);
            }
            PyObject *time_obj =
                (label != NULL) ? PyLong_FromLongLong(ev.time) : NULL;
            PyObject *res = NULL;
            if (time_obj != NULL) {
                res = PyObject_CallMethodObjArgs(tracer, str_engine_event,
                                                 time_obj, label, NULL);
            }
            Py_XDECREF(time_obj);
            Py_XDECREF(label);
            if (res == NULL) {
                Py_DECREF(ev.cb);
                Py_DECREF(ev.args);
                error = 1;
                goto done;
            }
            Py_DECREF(res);
        }
        /* dispatch callback(self, *args) through vectorcall */
        Py_ssize_t n = PyTuple_GET_SIZE(ev.args);
        PyObject *small[8];
        PyObject **stack = small;
        if (n + 1 > 8) {
            stack = PyMem_Malloc((size_t)(n + 1) * sizeof(PyObject *));
            if (stack == NULL) {
                Py_DECREF(ev.cb);
                Py_DECREF(ev.args);
                PyErr_NoMemory();
                error = 1;
                goto done;
            }
        }
        stack[0] = (PyObject *)self;
        for (Py_ssize_t i = 0; i < n; i++)
            stack[i + 1] = PyTuple_GET_ITEM(ev.args, i);
        PyObject *res = PyObject_Vectorcall(ev.cb, stack, n + 1, NULL);
        if (stack != small)
            PyMem_Free(stack);
        Py_DECREF(ev.cb);
        Py_DECREF(ev.args);
        if (res == NULL) {
            error = 1;
            goto done;
        }
        Py_DECREF(res);
        if (self->stop) {
            self->stop = 0;
            goto done;
        }
        /* a reached budget is exceeded only when work that would run
         * is still queued, exactly like Engine */
        if (limited && processed >= max_events && self->size
            && !(bounded && self->heap[0].time > until)) {
            PyErr_Format(SimulationError,
                         "event limit %lld exceeded at t=%lld; "
                         "likely livelock",
                         max_events, self->now);
            error = 1;
            goto done;
        }
    }
    if (bounded && until > self->now)
        self->now = until;
done:
    self->pending -= processed;
    self->events_processed += processed;
    self->running = 0;
    if (error)
        return NULL;
    return PyLong_FromSsize_t(processed);
}

static PyObject *
Engine_request_stop(NativeEngine *self, PyObject *Py_UNUSED(ignored))
{
    self->stop = 1;
    Py_RETURN_NONE;
}

static PyObject *
Engine_set_tracer(NativeEngine *self, PyObject *tracer)
{
    Py_INCREF(tracer);
    Py_XSETREF(self->tracer, tracer);
    Py_RETURN_NONE;
}

static PyObject *
Engine_drain(NativeEngine *self, PyObject *Py_UNUSED(ignored))
{
    for (Py_ssize_t i = 0; i < self->size; i++) {
        Py_CLEAR(self->heap[i].cb);
        Py_CLEAR(self->heap[i].args);
    }
    self->size = 0;
    self->pending = 0;
    Py_RETURN_NONE;
}

static PyObject *
Engine_peek_time(NativeEngine *self, PyObject *Py_UNUSED(ignored))
{
    if (self->size == 0)
        Py_RETURN_NONE;
    return PyLong_FromLongLong(self->heap[0].time);
}

static int
problems_append(PyObject *problems, const char *fmt, ...)
{
    va_list vargs;
    va_start(vargs, fmt);
    PyObject *msg = PyUnicode_FromFormatV(fmt, vargs);
    va_end(vargs);
    if (msg == NULL)
        return -1;
    int rc = PyList_Append(problems, msg);
    Py_DECREF(msg);
    return rc;
}

static PyObject *
Engine_integrity_errors(NativeEngine *self, PyObject *Py_UNUSED(ignored))
{
    PyObject *problems = PyList_New(0);
    if (problems == NULL)
        return NULL;
    Py_ssize_t queued = self->size;
    if (self->running) {
        /* mid-dispatch the pending counter still includes events this
         * run() call already processed; only the lower bound holds */
        if (queued > self->pending) {
            if (problems_append(problems,
                                "pending counter %zd below %zd queued events "
                                "mid-dispatch", self->pending, queued) < 0)
                goto fail;
        }
    }
    else if (queued != self->pending) {
        if (problems_append(problems,
                            "pending counter %zd != %zd queued events",
                            self->pending, queued) < 0)
            goto fail;
    }
    for (Py_ssize_t i = 0; i < self->size; i++) {
        if (self->heap[i].time < self->now) {
            if (problems_append(problems,
                                "heap event at t=%lld is before now=%lld",
                                self->heap[i].time, self->now) < 0)
                goto fail;
            break;
        }
    }
    for (Py_ssize_t i = 1; i < self->size; i++) {
        Py_ssize_t parent = (i - 1) >> 1;
        if (EV_LT(self->heap[i], self->heap[parent])) {
            if (problems_append(problems,
                                "heap invariant violated at index %zd", i) < 0)
                goto fail;
            break;
        }
    }
    return problems;
fail:
    Py_DECREF(problems);
    return NULL;
}

static PyObject *
Engine_get_now(NativeEngine *self, void *Py_UNUSED(closure))
{
    return PyLong_FromLongLong(self->now);
}

static PyObject *
Engine_get_pending(NativeEngine *self, void *Py_UNUSED(closure))
{
    return PyLong_FromSsize_t(self->pending);
}

static PyObject *
Engine_get_processed(NativeEngine *self, void *Py_UNUSED(closure))
{
    return PyLong_FromSsize_t(self->events_processed);
}

static PyObject *
Engine_get_scheduler(NativeEngine *self, void *Py_UNUSED(closure))
{
    return PyUnicode_FromString("native");
}

static int
Engine_init(NativeEngine *self, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"scheduler", NULL};
    PyObject *scheduler = Py_None;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "|O", kwlist, &scheduler))
        return -1;
    if (scheduler != Py_None) {
        int match = PyUnicode_Check(scheduler) &&
                    PyUnicode_CompareWithASCIIString(scheduler, "native") == 0;
        if (!match) {
            PyErr_Format(PyExc_ValueError,
                         "NativeEngine only supports 'native', got %R", scheduler);
            return -1;
        }
    }
    return 0;
}

static int
Engine_traverse(NativeEngine *self, visitproc visit, void *arg)
{
    for (Py_ssize_t i = 0; i < self->size; i++) {
        Py_VISIT(self->heap[i].cb);
        Py_VISIT(self->heap[i].args);
    }
    Py_VISIT(self->tracer);
    return 0;
}

static int
Engine_clear(NativeEngine *self)
{
    for (Py_ssize_t i = 0; i < self->size; i++) {
        Py_CLEAR(self->heap[i].cb);
        Py_CLEAR(self->heap[i].args);
    }
    self->size = 0;
    Py_CLEAR(self->tracer);
    return 0;
}

static void
Engine_dealloc(NativeEngine *self)
{
    PyObject_GC_UnTrack(self);
    Engine_clear(self);
    PyMem_Free(self->heap);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyMethodDef Engine_methods[] = {
    {"schedule", (PyCFunction)(void (*)(void))Engine_schedule, METH_FASTCALL,
     "Schedule callback(engine, *args) after delay ps."},
    {"schedule_at", (PyCFunction)(void (*)(void))Engine_schedule_at, METH_FASTCALL,
     "Schedule callback(engine, *args) at absolute time ps."},
    {"schedule_bound", (PyCFunction)(void (*)(void))Engine_schedule_bound,
     METH_FASTCALL,
     "Fast-path schedule for pre-validated callers (args as a tuple)."},
    {"run", (PyCFunction)(void (*)(void))Engine_run,
     METH_VARARGS | METH_KEYWORDS,
     "Run until the queue drains, `until` is reached, or a limit hits."},
    {"request_stop", (PyCFunction)Engine_request_stop, METH_NOARGS,
     "Stop the current run after the event now dispatching completes."},
    {"set_tracer", (PyCFunction)Engine_set_tracer, METH_O,
     "Record every event dispatch into the tracer (repro.obs)."},
    {"drain", (PyCFunction)Engine_drain, METH_NOARGS,
     "Discard all pending events."},
    {"integrity_errors", (PyCFunction)Engine_integrity_errors, METH_NOARGS,
     "Audit the scheduler's internal bookkeeping (repro.check)."},
    {"_peek_time", (PyCFunction)Engine_peek_time, METH_NOARGS,
     "Earliest pending event time, or None."},
    {NULL, NULL, 0, NULL},
};

static PyGetSetDef Engine_getset[] = {
    {"now", (getter)Engine_get_now, NULL, "Current simulation time (ps).", NULL},
    {"pending", (getter)Engine_get_pending, NULL,
     "Number of events still in the queue.", NULL},
    {"events_processed", (getter)Engine_get_processed, NULL, NULL, NULL},
    {"scheduler", (getter)Engine_get_scheduler, NULL, NULL, NULL},
    {NULL, NULL, NULL, NULL, NULL},
};

static PyTypeObject NativeEngine_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._native.NativeEngine",
    .tp_basicsize = sizeof(NativeEngine),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "Compiled deterministic discrete-event scheduler.",
    .tp_new = PyType_GenericNew,
    .tp_init = (initproc)Engine_init,
    .tp_dealloc = (destructor)Engine_dealloc,
    .tp_traverse = (traverseproc)Engine_traverse,
    .tp_clear = (inquiry)Engine_clear,
    .tp_methods = Engine_methods,
    .tp_getset = Engine_getset,
};

/* ================================================================== */
/* module                                                              */
/* ================================================================== */

static struct PyModuleDef native_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "repro.sim._native",
    .m_doc = "Compiled event scheduler (Engine(\"native\")).",
    .m_size = -1,
};

static PyObject *
import_attr(const char *module, const char *attr)
{
    PyObject *mod = PyImport_ImportModule(module);
    if (mod == NULL)
        return NULL;
    PyObject *obj = PyObject_GetAttrString(mod, attr);
    Py_DECREF(mod);
    return obj;
}

PyMODINIT_FUNC
PyInit__native(void)
{
    SimulationError = import_attr("repro.errors", "SimulationError");
    if (SimulationError == NULL)
        return NULL;
    str_qualname = PyUnicode_InternFromString("__qualname__");
    str_engine_event = PyUnicode_InternFromString("engine_event");
    if (str_qualname == NULL || str_engine_event == NULL)
        return NULL;
    if (PyType_Ready(&NativeEngine_Type) < 0)
        return NULL;

    PyObject *module = PyModule_Create(&native_module);
    if (module == NULL)
        return NULL;
    Py_INCREF(&NativeEngine_Type);
    if (PyModule_AddObject(module, "NativeEngine",
                           (PyObject *)&NativeEngine_Type) < 0) {
        Py_DECREF(&NativeEngine_Type);
        Py_DECREF(module);
        return NULL;
    }
    return module;
}
