(** Uniform-grid spatial index over rectangles.

    Full-chip flows query gate neighbourhoods millions of times; a grid
    with buckets sized near the interaction radius gives O(1) expected
    lookups without tree rebalancing. *)

type 'a t

(** [create ~bucket] makes an empty index with square buckets of
    [bucket] nanometres. *)
val create : bucket:int -> 'a t

val insert : 'a t -> Rect.t -> 'a -> unit

val length : 'a t -> int

(** All payloads whose rectangle touches the query window, each payload
    reported once. *)
val query : 'a t -> Rect.t -> (Rect.t * 'a) list

(** [nearby t r ~halo] is [query] over [r] inflated by [halo]. *)
val nearby : 'a t -> Rect.t -> halo:int -> (Rect.t * 'a) list
