(** Spatial shard planning for the flow.

    The placed die is partitioned into [count] vertical strips.  A
    strip owns every extraction bucket whose anchor — the bucket's
    left edge, [kx * tile] for bucket key [(kx, ky)] from
    {!Cdex.Extract.bucket_key} — falls in its half-open interval
    [[x_lo, x_hi)], and every OPC tile column whose left edge does
    (OPC tiles are never split across shards: a column has one left
    edge).  Because anchors are monotone in x and whole buckets/tile
    columns change hands atomically, concatenating per-shard results
    in shard order reproduces the unsharded canonical order — the
    invariant behind Flow's byte-identical sharded runs.

    Shards describe {e ownership} only.  Each shard's computation
    still reads the full drawn chip (OPC context) or the full merged
    mask (extraction windows) within the optical halo, so degenerate
    shards narrower than the halo are merely unbalanced, never wrong.
    A shard whose strip contains no bucket anchor simply owns no
    gates. *)

type t = {
  index : int;  (** 0-based shard index *)
  count : int;  (** total shards in the partition *)
  x_lo : int;  (** owned anchor interval, inclusive ([min_int] on shard 0) *)
  x_hi : int;  (** owned anchor interval, exclusive ([max_int] on the last) *)
  gates : Layout.Chip.gate_ref list;  (** owned gate sites, in chip order *)
  halo_gates : int;
      (** foreign gate sites within the litho halo of the owned
          region's hull — the redundant context this shard's windows
          can reach.  0 for a single-shard plan. *)
}

(** [plan ~tile ~halo ~count chip] cuts the die bbox into [count]
    equal-width strips ([count] is clamped to >= 1) and assigns every
    gate site to its owning strip.  [tile] must be the flow's
    extraction/OPC tile size; [halo] the litho kernel-support halo in
    nm (only used for the [halo_gates] diagnostic).  A chip without a
    die (no shapes) yields one trivial shard.  Deterministic: depends
    only on the die bbox, [tile] and [count]. *)
val plan : tile:int -> halo:int -> count:int -> Layout.Chip.t -> t list

(** The subset of OPC tiles owned by the shard (left-edge rule),
    preserving the canonical tile order. *)
val split_tiles : t -> Geometry.Rect.t list -> Geometry.Rect.t list

val pp : Format.formatter -> t -> unit
