(** Content-addressed cache of simulated aerial-image tiles.

    Repeated standard-cell rows, dose sweeps that share a defocus, and
    OPC iterations that revisit a mask state all ask the simulator for
    images it has already computed.  This cache keys each simulated
    raster by a canonical string of its *content* — the clipped mask
    rectangles relative to the raster origin, the raster geometry, and
    the defocus-adjusted kernel stack (see {!Aerial}) — so any window
    anywhere on the chip whose local mask pattern matches a stored one
    hits, and the stored pixels are bit-identical to what a fresh
    simulation would produce by construction (same paint order, same
    blur, same blend).

    The cache is bounded by a byte budget and evicts least recently
    used entries.  Hits return a copy relocated to the caller's origin
    (or fill the caller's buffer), so callers may mutate the result
    freely.  All operations are safe under concurrent use from pool
    domains (a single mutex; the critical sections are hash-table
    lookups, never simulations or pixel copies).

    Instrumentation: [litho.cache.hits] / [litho.cache.misses] /
    [litho.cache.evictions] counters and a [litho.cache.bytes] gauge
    (the gauge tracks {!global} only).  The hit/miss split depends on
    cache state and worker scheduling, so — like wall-clock gauges —
    these counters are exempt from the worker-count-independence
    contract of [Obs.Metrics]. *)

type t

(** [create ?max_bytes ()] makes an empty cache.  [max_bytes] bounds
    the summed size of stored pixel data (default 256 MiB); entries
    larger than the whole budget are simply not stored. *)
val create : ?max_bytes:int -> unit -> t

(** The process-wide cache used by {!Aerial.simulate}.  Its budget is
    [POTX_CACHE_MB] (MiB) when set, else 256 MiB. *)
val global : t

(** Global enable switch, shared by every cache (an [Atomic]; cheap to
    read).  When off, [find] always misses and [store] is a no-op, so
    the simulator behaves exactly as if the cache did not exist.
    Initialised from the [POTX_CACHE] environment variable via
    {!env_enabled}. *)
val enabled : unit -> bool

val set_enabled : bool -> unit

(** [env_enabled ()] reads the [POTX_CACHE] variable (or [var]):
    ["0"], ["false"], ["off"], ["no"] and the empty string disable,
    anything else enables, unset means [default] (itself defaulting to
    [true]). *)
val env_enabled : ?var:string -> ?default:bool -> unit -> bool

(** [find t ~origin key] returns a mutable copy of the stored raster
    relocated to [origin], or [None].  With [into], the stored pixels
    are blitted into [into] instead (it must have the entry's nx and
    ny, and keeps its own origin) and [into] is returned.  Counts a hit
    or a miss; a find while the switch is off counts neither.  Only
    the table lookup holds the lock; the pixel copy runs after it. *)
val find : ?into:Raster.t -> t -> origin:Geometry.Point.t -> string -> Raster.t option

(** [store t key raster] inserts a copy of [raster] (so later caller
    mutation cannot corrupt the cache), then evicts LRU entries until
    the budget holds.  The copy is made before the lock is taken.
    Re-storing an existing key is a no-op: contents are equal by
    construction, so first-write-wins keeps hits stable under
    concurrent stores. *)
val store : t -> string -> Raster.t -> unit

(** Drop every entry (budget and switch unchanged). *)
val clear : t -> unit

(** Current stored pixel-data bytes / entry count / byte budget. *)
val bytes : t -> int

val entries : t -> int

val max_bytes : t -> int
