(* What one repetition of a workload hands back to the reporter. *)

open Cachekernel

(** Simulated per-op latency: sample count, median and 99th percentile. *)
type latency = { n : int; p50 : float; p99 : float }

(* From one of the simulator's log-bucketed histograms, through the
   registry's own reader (bucket midpoints, clamped to the observed range). *)
let of_hist (h : Metrics.hist) =
  let m = Metrics.create () in
  Hashtbl.replace m.Metrics.histograms "h" h;
  { n = h.Metrics.h_count; p50 = Metrics.percentile m "h" 0.5; p99 = Metrics.percentile m "h" 0.99 }

(* Exact nearest-rank percentiles of raw samples. *)
let of_samples samples =
  let a = Array.of_list samples in
  Array.sort compare a;
  let n = Array.length a in
  let rank q = if n = 0 then 0.0 else a.(min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)) in
  { n; p50 = rank 0.5; p99 = rank 0.99 }

type t = {
  ops : int;  (** checked accesses, reaped workers or committed migrations *)
  failed : int;  (** ops whose answer check failed, plus audit violations *)
  sim_us : float;  (** simulated time of the timed run *)
  latency : latency;  (** simulated latency of each op *)
  insts : Instance.t array;
  aks : Aklib.App_kernel.t list;
  syscalls : int;
  net : Hw.Interconnect.t option;
  moves_issued : int;  (** [move_space] calls made *)
  failures : (string * int) list;  (** failed ops by cause, for the log *)
}

(** A built workload: its nodes, the timed run, and the checks after it. *)
type work = {
  insts : Instance.t array;
  run : unit -> unit;
  finish : unit -> t;
  planes : Migrate.Plane.t array;  (** migration planes, for step hooks *)
}

(* Traced repetitions record the supervisor's event trace, with room for
   every event so none is overwritten. *)
let traced = ref false
let trace_capacity = 1 lsl 26

let configure (config : Config.t) =
  if !traced then { config with Config.trace_capacity } else config

let start_trace insts =
  if !traced then Array.iter (fun (i : Instance.t) -> Trace.enable i.Instance.trace) insts

let ok what = function
  | Ok v -> v
  | Error e -> Fmt.failwith "%s: %a" what Api.pp_error e

(** [Audit.run] plus the SRM ledger's conservation check on every node;
    returns the number of violations. *)
let audit ?ledgers insts =
  let core =
    Array.fold_left (fun n i -> n + List.length (Audit.run i).Audit.violations) 0 insts
  in
  let ledger =
    match ledgers with
    | None -> 0
    | Some ls ->
      List.fold_left
        (fun n l -> n + List.length (Srm.Ledger.audit l ~repair:false))
        0 ls
  in
  core + ledger

(** Seeded generator for one input stream of a workload. *)
let rng ~seed stream = Random.State.make [| seed; stream |]

(** A seeded permutation of [0, n). *)
let permutation rng n =
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a
