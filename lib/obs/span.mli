(** Hierarchical span tracing.

    [with_ ~name f] times [f] and records a span event when tracing
    is enabled.  Nesting is tracked per domain (domain-local parent
    stack), so spans opened inside {!Exec.Pool} tasks record safely —
    a worker task's span parents at whatever span that worker domain
    has open (usually the root) rather than at the dispatching span.

    Tracing is off by default and the disabled path is a single
    atomic load and branch — a few nanoseconds — so instrumented hot
    paths cost nothing in normal runs.  When enabled, finished spans
    are appended to an in-memory log and, if a JSONL sink is
    attached, streamed as one JSON object per line:

    [{"type":"span","id":N,"parent":N|null,"depth":N,"name":S,
      "domain":N,"start_s":F,"wall_s":F,"cpu_s":F,"alloc_w":F,
      "attrs":{...}}]

    [start_s] is seconds since {!enable}; ids are unique and
    allocation-ordered, so a trace can be re-ordered or re-nested
    offline.  Each span also samples [Gc.minor_words] and
    [Gc.counters] at entry and exit and records the words allocated
    in between ([alloc_w]).  Those are the span's own domain's
    counters, read without walking the heap, so the enabled-path cost
    stays small (see the profiling-overhead ablation in DESIGN.md),
    and [alloc_w] counts only what that domain allocated: a child
    span that ran on another domain records its own.  {!Profile}
    turns a finished log into self-time/self-allocation attribution
    and Chrome-trace JSON. *)

type event = {
  id : int;
  parent : int option;
  depth : int;
  name : string;
  attrs : (string * string) list;
  domain : int;  (** recording domain, for per-track trace export *)
  start_s : float;  (** seconds since {!enable} *)
  wall_s : float;
  cpu_s : float;
  alloc_w : float;
      (** words allocated on the span's domain during the span, incl.
          children on the same domain *)
}

val enabled : unit -> bool

(** Start recording (idempotent).  Resets the in-memory log and the
    epoch. *)
val enable : unit -> unit

(** Attach a JSONL sink; implies {!enable}.  Any previous sink is
    closed. *)
val stream_to : string -> unit

(** Stop recording and close the sink.  The in-memory log survives
    until the next {!enable}. *)
val disable : unit -> unit

(** [with_ ~name ?attrs f] runs [f ()]; the span is recorded even
    when [f] raises.  [attrs] are evaluated lazily only when tracing
    is enabled. *)
val with_ : ?attrs:(unit -> (string * string) list) -> name:string -> (unit -> 'a) -> 'a

(** Finished spans in completion order. *)
val events : unit -> event list

(** Render a log as an indented tree (children in id order), one span
    per line with wall/CPU seconds and attrs. *)
val pp_tree : Format.formatter -> event list -> unit
