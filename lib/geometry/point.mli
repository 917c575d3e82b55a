(** Integer-nanometre points and vectors.

    All layout geometry in this code base is expressed on an integer
    nanometre grid, which keeps boolean operations and design-rule
    arithmetic exact. *)

type t = { x : int; y : int }

val make : int -> int -> t

val origin : t

val add : t -> t -> t

val sub : t -> t -> t

val neg : t -> t

val scale : int -> t -> t

(** [dot a b] is the integer dot product. *)
val dot : t -> t -> int

(** [cross a b] is the z-component of the cross product; positive when
    [b] is counter-clockwise from [a]. *)
val cross : t -> t -> int

(** Squared Euclidean distance, exact in integers. *)
val dist2 : t -> t -> int

(** Manhattan (L1) distance. *)
val manhattan : t -> t -> int

val equal : t -> t -> bool

val compare : t -> t -> int

(** Lexicographic by [y] then [x]; the order used by scanline sweeps. *)
val compare_yx : t -> t -> int

val pp : Format.formatter -> t -> unit
