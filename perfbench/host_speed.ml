(* The host's current speed, from a fixed reference computation.

   The benchmark runs on shared hosts whose speed swings by up to two
   times over minutes as other tenants come and go, so a rep's host time
   says as much about the neighbours as about the program.  Just before a
   rep's set-up and just after its timed run the benchmark times
   [reference], which is the benchmark's own code and never changes with
   the program: random byte updates over a 32 MiB table (outside the OCaml
   heap, so the collector neither scans it nor counts it) beside
   short-lived allocation, the mix of cache misses and minor collections
   the simulator's own hot paths show.  A rep's host time
   divided by the mean of the two reference times is the program's cost in
   units of host speed; [nominal_s] turns that back into seconds. *)

let table = lazy Bigarray.(Array1.create char c_layout (1 lsl 25))
let ring = Array.make 4096 (0, 0)

let reference () =
  let table = Lazy.force table in
  let mask = Bigarray.Array1.dim table - 1 in
  let x = ref 12345 in
  for i = 1 to 400_000 do
    x := (!x * 1103515245) + 12345;
    let j = (!x lsr 7) land mask in
    Bigarray.Array1.unsafe_set table j
      (Char.unsafe_chr ((Char.code (Bigarray.Array1.unsafe_get table j) + i) land 255));
    ring.(i land 4095) <- (j, i)
  done

(** Host seconds one [reference] call takes. *)
let time now_s =
  let t0 = now_s () in
  reference ();
  now_s () -. t0

(** [reference]'s time on the nominal host that figures are scaled to; it
    takes 14 to 23 ms on a 2-vCPU Intel Xeon virtual machine, by load. *)
let nominal_s = 0.020
