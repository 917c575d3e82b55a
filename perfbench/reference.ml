(* A fixed computation that measures the host's speed during a run.

   On a share of a busy machine, such as 2 vCPUs of a shared KVM guest,
   compute speed drifts by up to 1.6x over minutes, and the drift
   reaches every op of a run alike (NOTES.md, "Host noise").  So a run also times this
   computation, interleaved with its ops, and reports its times as a
   host at the reference speed would have measured them.

   It is a copy of the library's box-blur cascade (lib/litho/blur.ml)
   on the benchmark's own 800 x 800 raster: the shape of the direct
   convolution that dominates the flow, frozen here so that no change
   to the library moves it. *)

let nx = 800

let ny = 800

(* A fixed scale: about the median sample on a 2-vCPU 2.0 GHz Xeon
   over two hours of runs, whose own medians ranged from 21 to 40 ms.
   Times at the reference speed thus read near that host's wall times. *)
let nominal_ms = 28.0

(* The share of a run's measured time spent on samples. *)
let share = 0.1

let src = Array.init (nx * ny) (fun i -> if i / 37 mod 3 = 0 then 1.0 else 0.0)

let data = Array.make (nx * ny) 0.0

let line = Array.make (max nx ny) 0.0

let box_h w =
  let r = (w - 1) / 2 in
  let inv = 1.0 /. float_of_int w in
  for iy = 0 to ny - 1 do
    let row = iy * nx in
    let acc = ref 0.0 in
    for ix = 0 to min (nx - 1) r do
      acc := !acc +. data.(row + ix)
    done;
    for ix = 0 to nx - 1 do
      line.(ix) <- !acc *. inv;
      let enter = ix + r + 1 and leave = ix - r in
      if enter < nx then acc := !acc +. data.(row + enter);
      if leave >= 0 then acc := !acc -. data.(row + leave)
    done;
    Array.blit line 0 data row nx
  done

let box_v w =
  let r = (w - 1) / 2 in
  let inv = 1.0 /. float_of_int w in
  for ix = 0 to nx - 1 do
    let acc = ref 0.0 in
    for iy = 0 to min (ny - 1) r do
      acc := !acc +. data.((iy * nx) + ix)
    done;
    for iy = 0 to ny - 1 do
      line.(iy) <- !acc *. inv;
      let enter = iy + r + 1 and leave = iy - r in
      if enter < ny then acc := !acc +. data.((enter * nx) + ix);
      if leave >= 0 then acc := !acc -. data.((leave * nx) + ix)
    done;
    for iy = 0 to ny - 1 do
      data.((iy * nx) + ix) <- line.(iy)
    done
  done

(* One sample, in ms.  The fresh copy of the raster is not timed, so
   the sample starts from the same cache state whatever the op before
   it touched. *)
let sample () =
  Array.blit src 0 data 0 (nx * ny);
  let t0 = Unix.gettimeofday () in
  List.iter box_h [ 9; 9; 11 ];
  List.iter box_v [ 9; 9; 11 ];
  (Unix.gettimeofday () -. t0) *. 1e3

type t = { mutable samples : float list; mutable owed_s : float }

let create () = { samples = []; owed_s = 0.0 }

(* Take samples until they have used [share] of the [s] seconds of
   measured work just done (and of all before it). *)
let follow t s =
  t.owed_s <- t.owed_s +. (share *. s);
  while t.owed_s > 0.0 do
    let ms = sample () in
    t.samples <- ms :: t.samples;
    t.owed_s <- t.owed_s -. (ms /. 1e3)
  done

let samples t = Array.of_list t.samples
