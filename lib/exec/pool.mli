(** Deterministic shared-memory work pool over OCaml domains.

    The whole reproduction is seeded-deterministic, so the pool's
    contract is stronger than "parallel map": for a pure task function
    the result is {e bit-identical} for any worker count, including
    the [domains = 1] sequential case.  This holds because

    - task [i] always computes [f input.(i)] into slot [i], whichever
      domain claims it, so scheduling never reorders element
      computations;
    - reductions always combine the mapped values in index order on
      the calling domain, so floating-point association is fixed.

    A job is the [n] tasks of one call.  Domains claim its tasks from
    an atomic next index, so a claim takes no lock.  Worker domains
    are spawned once in {!create} and park on a condition variable
    while no job has an unclaimed task; a pool with [domains = 1]
    spawns nothing and runs every job on its caller.  Task functions
    must not touch shared mutable state; callers must warm any
    lazily-built cache the tasks read (e.g. spatial indices) before
    dispatching.

    {b Reentrancy.}  A task may call {!map} (or any other entry point)
    on its own pool.  The nested job is queued for idle domains like
    any other; an idle worker takes a task of the newest queued job.
    The caller of a job runs that job's unclaimed tasks, then helps
    the jobs opened under it, newest first, and blocks only while none
    of the work it waits on is queued.  So a nested job runs on every
    domain that has nothing else to do, and a lone outer task's inner
    job is as parallel as a top-level one.  Several client domains may
    map on one pool at once; each helps only its own job. *)

type t

(** [create ~domains] spawns [max 0 (domains - 1)] worker domains; the
    calling domain is the remaining worker.  [domains] is clamped to
    at least 1. *)
val create : ?name:string -> domains:int -> unit -> t

(** Worker count the pool was created with (after clamping). *)
val domains : t -> int

(** Join the worker domains.  The pool must not be used afterwards;
    calling [shutdown] twice is harmless. *)
val shutdown : t -> unit

(** [with_pool ~domains f] runs [f pool] and shuts the pool down even
    if [f] raises. *)
val with_pool : ?name:string -> domains:int -> (t -> 'a) -> 'a

(** [map t f xs] is [Array.map f xs], parallel across the pool.
    If any task raises, the exception of the lowest failing index is
    re-raised in the caller with its backtrace, after every claimed
    task of the job has finished; tasks above a failed index may be
    skipped.  The index is the same for any domain count. *)
val map : ?label:string -> t -> ('a -> 'b) -> 'a array -> 'b array

(** List version of {!map}; element order is preserved. *)
val map_list : ?label:string -> t -> ('a -> 'b) -> 'a list -> 'b list

(** [concat_map_list t f xs] is [List.concat_map f xs] with the [f]
    applications run on the pool and the concatenation done in input
    order. *)
val concat_map_list : ?label:string -> t -> ('a -> 'b list) -> 'a list -> 'b list

(** [init t n f] is [Array.init n f] with a guaranteed 0..n-1
    evaluation order semantics (each [f i] independent), parallel
    across the pool. *)
val init : ?label:string -> t -> int -> (int -> 'b) -> 'b array

(** [map_reduce t ~map ~reduce ~init xs] folds the mapped values in
    index order: [reduce (... (reduce init (map xs.(0))) ...) (map
    xs.(n-1))].  Only the [map] applications run in parallel, so the
    reduction order — and therefore floating-point rounding — is
    identical to the sequential fold. *)
val map_reduce :
  ?label:string ->
  t ->
  map:('a -> 'b) ->
  reduce:('c -> 'b -> 'c) ->
  init:'c ->
  'a array ->
  'c

(** {1 Observability}

    Every job is accounted against its [?label] (default ["map"]):
    number of jobs, number of tasks, and wall-clock seconds spent in
    the job (dispatch to join, as seen by the caller).

    The counters live in the global {!Obs.Metrics} registry as
    [exec.pool.<pool>.<label>.calls], [....tasks] (counters) and
    [....wall_s] (gauge), so a [--metrics] dump carries them; pools
    sharing a name share the registry metrics, which accumulate
    across pool instances.  {!report} is a per-pool view: it
    subtracts the registry values seen when this pool first used the
    label, and {!reset_stats} re-baselines that view without touching
    the registry. *)

type stage_stats = {
  calls : int;  (** jobs dispatched under this label *)
  tasks : int;  (** total elements processed *)
  wall_s : float;  (** caller-observed wall seconds *)
}

(** Per-label counters, sorted by label. *)
val report : t -> (string * stage_stats) list

val reset_stats : t -> unit

(** Fraction of worker capacity spent executing tasks since this
    pool was created: busy worker-seconds / (uptime × domains), in
    [0, 1] up to timer skew for one client domain.  A domain's busy
    time runs from the start to the end of its outermost task, minus
    the time it blocks inside it, so a domain that helps a nested job
    counts once.  The underlying gauges are published as
    [exec.pool.<pool>.busy_s] (accumulates while tasks run, caller's
    tasks included) and [exec.pool.<pool>.up_s] (uptime, written at
    {!shutdown}) plus [exec.pool.<pool>.domains], so the same figure
    can be derived offline from a [--metrics] dump — that derivation
    is what [potx obs-report] prints. *)
val occupancy : t -> float

(** [Domain.recommended_domain_count] capped at [cap] (default 4) —
    the conventional worker count for benches. *)
val recommended : ?cap:int -> unit -> int
