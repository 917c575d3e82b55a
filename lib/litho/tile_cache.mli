(** Content-addressed cache of simulated aerial-image tiles.

    Repeated standard-cell rows in CD extraction, dose sweeps that
    share a defocus (serve [corner] and dose re-queries, the SSTA
    process window, PV bands) and a calibration repeated in one
    process all ask the simulator for images it has already computed.
    Model OPC is not a user: its sim tiles simulate into their own
    buffers, which bypass the cache ({!Aerial.simulate}), because its
    images almost never repeat.  This cache keys each simulated
    raster by a canonical string of its *content* — the clipped mask
    rectangles relative to the raster origin, the raster geometry, and
    the defocus-adjusted kernel stack (see {!Aerial}) — so any window
    anywhere on the chip whose local mask pattern matches a stored one
    hits, and the stored pixels are bit-identical to what a fresh
    simulation would produce by construction (same paint order, same
    blur, same blend).

    The cache is bounded by a byte budget and evicts least recently
    used entries.  Entries are shared, not copied: {!store} keeps the
    raster it is given and a hit returns that raster relocated to the
    caller's origin, sharing its pixels.  Stored and returned rasters
    are therefore read-only; nobody may write to a raster after
    storing it or to one a hit returned.  All operations are safe
    under concurrent use from pool domains (a single mutex; the
    critical sections are hash-table lookups, never simulations or
    pixel copies).

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

(** The process-wide cache used by {!Aerial.simulate} for models
    with {!Model.t.cache} set.  Its budget is 256 MiB. *)
val global : t

(** [find t ~origin key] returns the stored raster relocated to
    [origin] ({!Raster.relocate}: the pixels are the entry's own, the
    entry keeps its origin), or [None].  The result is read-only.
    Counts a hit or a miss; no pixel is copied. *)
val find : t -> origin:Geometry.Point.t -> string -> Raster.t option

(** [store t key raster] inserts [raster] itself, not a copy, then
    evicts LRU entries until the budget holds.  The caller hands the
    raster over: it must not write to it afterwards (so
    {!Aerial.simulate} never stores an image computed in reused
    buffers).  Re-storing an existing key is a
    no-op: contents are equal by construction, so first-write-wins
    keeps hits stable under concurrent stores. *)
val store : t -> string -> Raster.t -> unit

(** Drop every entry (budget unchanged). *)
val clear : t -> unit

(** Current stored pixel-data bytes / entry count / byte budget. *)
val bytes : t -> int

val entries : t -> int

val max_bytes : t -> int
