(** Deterministic fault injection and supervised retries.

    Long flow runs die to transient failures (a wedged NFS read, an
    OOM-killed worker, a flaky license server); this module gives the
    flow named {e fault points} — [point "litho.simulate" f] — that an
    active {e fault plan} can turn into injected failures, plus the
    bounded-backoff retry supervision that recovers from them.  Both
    sides are deterministic: plans are parsed from a textual spec
    ([potx --faults]), probabilistic rules draw from {!Stats.Rng}
    keyed by (plan seed, point name, hit index), and every stage of
    the flow is a pure function of its inputs, so a retried run is
    bit-identical to a fault-free one (the invariant
    [test/test_fault.ml] enforces).

    With no plan installed a fault point is one atomic load and a
    branch, so instrumented hot paths cost nothing in normal runs.

    {2 Fault-spec grammar}

    {v
    SPEC   ::= clause (';' clause)*
    clause ::= 'seed=' INT            plan seed for probabilistic rules
             | POINT '=' ACTION
    POINT  ::= dotted point name; trailing '*' is a prefix glob
               ("litho.*"), bare '*' matches every point
    ACTION ::= 'fail'                 fail the first hit only
             | 'fail' INT            fail the first INT hits  (fail3)
             | 'always'              permanent: every hit fails
             | 'delay' FLOAT         sleep FLOAT ms per hit   (delay2.5)
             | 'p' FLOAT             each hit fails with probability
                                     FLOAT                    (p0.25)
    v}

    The first matching clause wins; hits are counted per point name
    across the whole process and reset by {!set_plan}. *)

(** Raised by a triggered fault point; carries the point name. *)
exception Injected of string

type action =
  | Fail of int  (** fail the first [n] hits, succeed afterwards *)
  | Always  (** permanent failure *)
  | Delay_ms of float  (** sleep, then run normally *)
  | Flaky of float  (** fail each hit with this probability *)

type rule = { pattern : string; action : action }

type plan = { seed : int; rules : rule list }

(** Parse a fault spec.  [Error msg] pinpoints the offending clause. *)
val parse : string -> (plan, string) result

(** Canonical spec text; [parse (to_string p)] re-reads [p] exactly. *)
val to_string : plan -> string

(** Install (or clear) the process-wide plan.  Installing resets every
    per-point hit counter, so plans compose with repeated runs in one
    process. *)
val set_plan : plan option -> unit

(** {1 Fault points} *)

(** [declare name] registers a point name at module-load time so test
    harnesses can enumerate every guard in the binary. *)
val declare : string -> unit

(** Registered point names, sorted. *)
val points : unit -> string list

(** [point name f] runs [f ()], unless the active plan has a matching
    rule that decides this hit fails — then {!Injected} is raised (and
    the [fault.injected] counter incremented) without calling [f].
    Hit counting is mutex-protected, so points inside {!Exec.Pool}
    tasks are safe.  Undeclared names are declared on first use. *)
val point : string -> (unit -> 'a) -> 'a

(** {1 Supervised retries} *)

type retry = {
  attempts : int;  (** total tries, >= 1; 1 means no retry *)
  backoff_s : float;  (** sleep before the first retry *)
  backoff_factor : float;  (** multiplier per further retry *)
  max_backoff_s : float;  (** backoff ceiling *)
}

(** One attempt, no supervision. *)
val no_retry : retry

(** [retrying n] allows [n] retries after the first attempt (so
    [attempts = n + 1]) with the default 1 ms doubling backoff capped
    at 100 ms. *)
val retrying : int -> retry

(** [with_retry r f] runs [f ()]; on exception, if tries remain it
    sleeps the bounded backoff, bumps the [exec.retries] counter,
    calls [on_retry] with the attempt number just failed (1-based) and
    tries again.  When attempts are exhausted the last exception is
    re-raised with its backtrace. *)
val with_retry : ?on_retry:(int -> unit) -> retry -> (unit -> 'a) -> 'a
