(** Process-wide metrics registry: counters, gauges, and fixed-bucket
    histograms keyed by dotted names ([cdex.tiles], [opc.iterations],
    [sta.paths], ...).

    Instruments are registered once (get-or-create by name) and held
    by the call site, so the hot-path cost of an update is one atomic
    add (counter/gauge) or one short mutex section (histogram) —
    updates are safe from any domain.  Counters and histograms are
    pure functions of the work done, so a deterministic workload
    yields identical values for any worker count; gauges carry
    wall-clock readings and are exempt from that contract.

    Histogram bucket edges are fixed at registration, so bucket
    counts — and the serialised output — are deterministic too.

    All output (snapshot order, {!save_jsonl_file}) is sorted by
    metric name. *)

type t
(** A registry.  {!global} is the default used across the flow;
    fresh registries are for tests. *)

val create : unit -> t

val global : t

(** {1 Instruments} *)

type counter

type gauge

type histogram

(** Get or create.  @raise Invalid_argument if [name] is already
    registered as a different instrument kind. *)
val counter : ?registry:t -> string -> counter

val incr : counter -> unit

val add : counter -> int -> unit

val counter_value : counter -> int

(** Gauges hold a float; [add_gauge] accumulates (used for wall-time
    attribution), [set_gauge] overwrites. *)
val gauge : ?registry:t -> string -> gauge

val set_gauge : gauge -> float -> unit

val add_gauge : gauge -> float -> unit

val gauge_value : gauge -> float

(** [histogram ~edges name]: [edges] must be strictly increasing;
    observations fall into [Array.length edges + 1] buckets — bucket
    [i] counts values [v <= edges.(i)] (first matching edge), the
    last bucket is overflow.  Default edges suit nanometre-scale
    quantities: 0.5, 1, 2, 5, 10, 20, 50, 100, 200, 500. *)
val histogram : ?registry:t -> ?edges:float array -> string -> histogram

val observe : histogram -> float -> unit

(** {1 Reading} *)

type histogram_snapshot = {
  edges : float array;
  counts : int array;  (** length [Array.length edges + 1] *)
  count : int;
  sum : float;
}

type value =
  | Counter of int
  | Gauge of float
  | Histogram of histogram_snapshot

(** All metrics, sorted by name. *)
val snapshot : t -> (string * value) list

(** Zero every instrument; registrations (and handles held by call
    sites) stay valid. *)
val reset : t -> unit

(** The JSONL object for one metric:
    [{"type":"counter","name":...,"value":...}],
    [{"type":"gauge","name":...,"value":...}],
    [{"type":"histogram","name":...,"edges":[...],"counts":[...],
      "count":...,"sum":...}].  {!Report.metric_of_json} is the
    inverse. *)
val json_of_metric : string -> value -> Json.t

(** [save_jsonl_file path r] writes one {!json_of_metric} object per
    line, sorted by name, to [path] (truncating it). *)
val save_jsonl_file : string -> t -> unit
