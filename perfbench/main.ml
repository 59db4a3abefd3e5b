(* The repository benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

   Repeats one workload — a fixed amount of seeded work, built afresh each
   time — until S host seconds have passed, then prints details, one per
   line, and as the last line one JSON object:
   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
   With --trace 0 the metrics are the end-to-end ones, from untraced
   repetitions; with --trace 1 they are the per-layer ones, from traced
   repetitions interleaved with untraced ones.  --tiny shrinks every
   workload for the self-test.  See README.md. *)

open Cachekernel

let workloads = [ "fault_thrash"; "unix_procs"; "cluster_migrate" ]

(* -- one repetition -- *)

type rep = {
  setup_s : float;
  wall_s : float;  (** host time of the timed run *)
  ref_s : float;
      (** host time of the reference computation: the mean of one run just
          before set-up and one just after the timed run *)
  words : float;  (** minor words allocated by the timed run *)
  majors : int;  (** major collections during the timed run *)
  audit_s : float;  (** host time of the answer checks and audits *)
  heap_words : int;  (** largest major heap seen at the end of set-up or run *)
  ops : int;
  failed : int;
  failures : (string * int) list;
  sim_us : float;
  latency_n : int;
  p50 : float;
  p99 : float;
  counts : (string * float) list;
  host : (string * int * float * int) list;  (** row, ns, minor words, intervals *)
  run_ns : int;  (** host time inside [Engine.run] *)
  fault_growth : float;
  step_us : float list;  (** host us between migration protocol steps *)
  fig2 : Fig2.t;
}

let now_s () = float_of_int (Probe.now_ns ()) *. 1e-9

let faults_of (insts : Instance.t array) () =
  Array.fold_left (fun n (i : Instance.t) -> n + !(i.Instance.hot.Instance.faults_forwarded)) 0 insts

(* Host time between successive protocol steps on one side (src or dst)
   of each node's plane; a side's last step closes its transfer, so idle
   time between transfers is not counted. *)
let step_hooks planes =
  let gaps = ref [] in
  Array.iter
    (fun plane ->
      let last = Hashtbl.create 2 in
      Migrate.Plane.set_step_hook plane
        (Some
           (fun step ->
             let t = Probe.now_ns () in
             let side = String.sub step 0 3 in
             Option.iter
               (fun t0 -> gaps := (float_of_int (t - t0) /. 1000.0) :: !gaps)
               (Hashtbl.find_opt last side);
             if step = "src.done" || step = "dst.committed" then Hashtbl.remove last side
             else Hashtbl.replace last side t)))
    planes;
  gaps

let prepare ~name ~tiny ~seed ~domains =
  match name with
  | "fault_thrash" -> Fault_thrash.prepare ~tiny ~seed
  | "unix_procs" -> Unix_procs.prepare ~tiny ~seed
  | _ -> Cluster_migrate.prepare ~domains ~tiny ~seed ()

(* -- statistics -- *)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0 else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let ratio a b = if b = 0.0 then 0.0 else a /. b
let fi = float_of_int

(* Counts the program keeps, summed over a rep's nodes. *)
let counts (o : Outcome.t) =
  let sum f = Array.fold_left (fun n i -> n + f i) 0 o.Outcome.insts in
  let sum_aks f = List.fold_left (fun n ak -> n + f ak) 0 o.Outcome.aks in
  let metric name = sum (fun (i : Instance.t) -> Metrics.counter i.Instance.metrics name) in
  let stats f = sum (fun (i : Instance.t) -> f i.Instance.stats) in
  let tlb f =
    sum (fun (i : Instance.t) ->
        Array.fold_left (fun n c -> n + f c.Hw.Cpu.tlb) 0 i.Instance.node.Hw.Mpm.cpus)
  in
  let scan_n, scan_sum =
    Array.fold_left
      (fun (n, s) (i : Instance.t) ->
        let h = Metrics.hist i.Instance.metrics "victim_scan.mapping" in
        (n + h.Metrics.h_count, s +. h.Metrics.sum))
      (0, 0.0) o.Outcome.insts
  in
  let net f = match o.Outcome.net with Some n -> f n | None -> 0 in
  let store f = sum_aks (fun ak -> f ak.Aklib.App_kernel.store) in
  [
    ("engine.steps", fi (metric "engine.steps"));
    ("sched.dispatches", fi (metric "sched.dispatches"));
    ("hw.tlb_hits", fi (tlb Hw.Tlb.hits));
    ("hw.tlb_misses", fi (tlb Hw.Tlb.misses));
    ( "hw.disk_ops",
      fi (sum_aks (fun ak -> Hw.Disk.reads ak.Aklib.App_kernel.disk + Hw.Disk.writes ak.Aklib.App_kernel.disk)) );
    ("hw.net_frames", fi (net Hw.Interconnect.sent));
    ("hw.net_dropped", fi (net Hw.Interconnect.dropped));
    ("core.faults_forwarded", fi (stats (fun s -> s.Stats.faults_forwarded)));
    ("core.mapping_loads", fi (stats (fun s -> s.Stats.mappings.Stats.loads)));
    ("core.mapping_writebacks", fi (stats (fun s -> s.Stats.mappings.Stats.writebacks)));
    ("core.victim_scan_mapping_mean", ratio scan_sum (fi scan_n));
    ("core.traps_forwarded", fi (stats (fun s -> s.Stats.traps_forwarded)));
    ("core.thread_loads", fi (stats (fun s -> s.Stats.threads.Stats.loads)));
    ("core.space_loads", fi (stats (fun s -> s.Stats.spaces.Stats.loads)));
    ("core.cow_copies", fi (stats (fun s -> s.Stats.cow_copies)));
    ("aklib.page_ins", fi (store Aklib.Backing_store.page_ins));
    ("aklib.page_outs", fi (store Aklib.Backing_store.page_outs));
    ( "aklib.evictions",
      fi (sum_aks (fun ak -> (Aklib.Segment_mgr.stats ak.Aklib.App_kernel.mgr).Aklib.Segment_mgr.evictions)) );
    ( "aklib.spaces_tracked",
      fi (sum_aks (fun ak -> Hashtbl.length ak.Aklib.App_kernel.mgr.Aklib.Segment_mgr.spaces)) );
    ("unix_emu.syscalls", fi o.Outcome.syscalls);
    ("srm.heartbeats", fi (metric "fd.heartbeats"));
    ("srm.balance_moves", fi (metric "balance.moves"));
    ("migrate.bytes", fi (metric "migrate.bytes_out"));
    ("migrate.chunks", fi (metric "migrate.chunks_out"));
    ("migrate.resends", fi (metric "migrate.retransmits" + metric "migrate.commit_resends"));
    ("migrate.completed", fi (metric "migrate.completed"));
    ("migrate.issued", fi o.Outcome.moves_issued);
  ]

let rep ~name ~tiny ~seed ~traced ~domains =
  Outcome.traced := traced;
  (* start every rep from the same, collected heap *)
  Gc.full_major ();
  let ref_before = Host_speed.time now_s in
  let t0 = now_s () in
  let w = prepare ~name ~tiny ~seed ~domains in
  let setup_s = now_s () -. t0 in
  let heap0 = (Gc.quick_stat ()).Gc.heap_words in
  let gaps = if traced then step_hooks w.Outcome.planes else ref [] in
  Probe.arm ~faults:(faults_of w.Outcome.insts) traced;
  let majors0 = (Gc.quick_stat ()).Gc.major_collections in
  let w0 = Gc.minor_words () in
  let t1 = now_s () in
  w.Outcome.run ();
  let wall_s = now_s () -. t1 in
  let words = Gc.minor_words () -. w0 in
  let stat = Gc.quick_stat () in
  let majors = stat.Gc.major_collections - majors0 in
  Probe.disarm ();
  let ref_s = (ref_before +. Host_speed.time now_s) /. 2.0 in
  let host =
    List.map
      (fun r ->
        let i = Probe.row_index r in
        (Probe.row_name r, Probe.st.Probe.ns.(i), Probe.st.Probe.words.(i), Probe.st.Probe.calls.(i)))
      (Array.to_list Probe.rows)
  in
  let run_ns = Probe.st.Probe.run_ns in
  let first, last = Probe.fault_tenths () in
  let t2 = now_s () in
  let o = w.Outcome.finish () in
  let audit_s = now_s () -. t2 in
  let fig2 = if traced then Fig2.reduce w.Outcome.insts else Fig2.empty in
  (* keep numbers only: a rep's nodes are garbage once it is summarised *)
  {
    setup_s;
    wall_s;
    ref_s;
    words;
    majors;
    audit_s;
    heap_words = max heap0 stat.Gc.heap_words;
    ops = o.Outcome.ops;
    failed = o.Outcome.failed;
    failures = o.Outcome.failures;
    sim_us = o.Outcome.sim_us;
    latency_n = o.Outcome.latency.Outcome.n;
    p50 = o.Outcome.latency.Outcome.p50;
    p99 = o.Outcome.latency.Outcome.p99;
    counts = counts o;
    host;
    run_ns;
    fault_growth = (if first > 0.0 then last /. first else 0.0);
    step_us = !gaps;
    fig2;
  }

(* Everything that must repeat exactly for one commit and seed. *)
let fingerprint ~with_words r =
  [
    ("ops", fi r.ops);
    ("failed", fi r.failed);
    ("sim_us", r.sim_us);
    ("latency_n", fi r.latency_n);
    ("p50", r.p50);
    ("p99", r.p99);
  ]
  @ r.counts
  @ if with_words then [ ("alloc.minor_words", r.words) ] else []

let mismatches a b =
  List.filter_map
    (fun (k, v) ->
      match List.assoc_opt k b with
      | Some v' when v' = v || (Float.is_nan v && Float.is_nan v') -> None
      | other ->
        Some
          (Printf.sprintf "%s: %.17g vs %s" k v
             (match other with Some x -> Printf.sprintf "%.17g" x | None -> "missing")))
    a

(* -- metrics -- *)

(* Host-time figures skip the first repetition: it pays for heap growth
   and cold caches that later repetitions, like a running system, do not. *)
let warm reps = match reps with _ :: (_ :: _ as tl) -> tl | _ -> reps

let end_to_end reps =
  let r = List.hd reps in
  let ops = fi r.ops in
  let reps = warm reps in
  [
    ("setup_s", "s", median (List.map (fun r -> r.setup_s) reps));
    (* at the nominal host speed: see host_speed.ml *)
    ( "ops_per_s",
      "1/s",
      ops /. (median (List.map (fun r -> r.wall_s /. r.ref_s) reps) *. Host_speed.nominal_s) );
    ("sim_us_per_op", "us", r.sim_us /. ops);
    ( "peak_heap_mb",
      "MB",
      median (List.map (fun r -> fi (r.heap_words * (Sys.word_size / 8)) /. 1048576.0) reps) );
  ]

let host_row r name = List.find (fun (n, _, _, _) -> n = name) r.host

(* share of Engine.run host time the table's rows account for *)
let coverage r = ratio (fi (List.fold_left (fun n (_, ns, _, _) -> n + ns) 0 r.host)) (fi r.run_ns)

let per_layer ~untraced ~traced ~d2 =
  let u = List.hd untraced in
  let ops = fi u.ops in
  let c = u.counts in
  let count k = List.assoc k c in
  let per_op k = count k /. ops in
  let med f = median (List.map f traced) in
  let share name = med (fun r -> let _, ns, _, _ = host_row r name in ratio (fi ns) (fi r.run_ns)) in
  let per_call ~scale name =
    med (fun r ->
        let _, ns, _, n = host_row r name in
        ratio (fi ns) (fi n) /. scale)
  in
  let fig2 = (List.hd traced).fig2 in
  let untraced_wall = median (List.map (fun r -> r.wall_s) (warm untraced)) in
  [
    ("sim_p50_us", "us", u.p50);
    ("sim_p99_us", "us", u.p99);
    ("engine.steps_per_op", "count/op", per_op "engine.steps");
    ("alloc.minor_words_per_step", "words/step", ratio u.words (count "engine.steps"));
    ("engine.self_host_share", "ratio", share "engine.self");
    ( "engine.d2_speedup",
      "x",
      match d2 with
      | [] -> 0.0
      | _ -> ratio untraced_wall (median (List.map (fun r -> r.wall_s) d2)) );
    ("sched.dispatches_per_op", "count/op", per_op "sched.dispatches");
    ( "hw.tlb_miss_ratio",
      "ratio",
      ratio (count "hw.tlb_misses") (count "hw.tlb_hits" +. count "hw.tlb_misses") );
    ("hw.access_host_ns", "ns", per_call ~scale:1.0 "hw.access");
    ("hw.disk_ops_per_op", "count/op", per_op "hw.disk_ops");
    ("hw.net_frames_per_op", "count/op", per_op "hw.net_frames");
    ("hw.net_dropped", "count", count "hw.net_dropped");
    ("core.faults_forwarded_per_op", "count/op", per_op "core.faults_forwarded");
    ("core.mapping_loads_per_op", "count/op", per_op "core.mapping_loads");
    ("core.mapping_writebacks_per_op", "count/op", per_op "core.mapping_writebacks");
    ("core.victim_scan_mapping_mean", "count", count "core.victim_scan_mapping_mean");
    ("core.fault_host_us", "us", per_call ~scale:1000.0 "core.fault");
    ("core.traps_forwarded_per_op", "count/op", per_op "core.traps_forwarded");
    ("core.thread_loads_per_op", "count/op", per_op "core.thread_loads");
    ("core.space_loads_per_op", "count/op", per_op "core.space_loads");
    ("core.cow_copies_per_op", "count/op", per_op "core.cow_copies");
  ]
  @ Array.to_list
      (Array.mapi (fun i s -> ("fig2." ^ s ^ "_us", "us", fig2.Fig2.mean_us.(i))) Fig2.steps)
  @ [
      ("error_rate", "ratio", fi u.failed /. ops);
      ("aklib.page_ins_per_op", "count/op", per_op "aklib.page_ins");
      ("aklib.page_outs_per_op", "count/op", per_op "aklib.page_outs");
      ("aklib.evictions_per_op", "count/op", per_op "aklib.evictions");
      ("aklib.spaces_tracked", "count", count "aklib.spaces_tracked");
      ("aklib.fault_host_growth", "x", med (fun r -> r.fault_growth));
      ("unix_emu.syscalls_per_op", "count/op", per_op "unix_emu.syscalls");
      ("unix_emu.syscall_host_us", "us", per_call ~scale:1000.0 "unix_emu.syscall");
      ("srm.heartbeats_per_op", "count/op", per_op "srm.heartbeats");
      ("srm.balance_moves_per_op", "count/op", per_op "srm.balance_moves");
      ("migrate.bytes_per_op", "B/op", per_op "migrate.bytes");
      ("migrate.chunks_per_op", "count/op", per_op "migrate.chunks");
      ("migrate.resends_per_op", "count/op", per_op "migrate.resends");
      ("migrate.useful_ratio", "ratio", ratio (count "migrate.completed") (count "migrate.issued"));
      ("migrate.step_host_us", "us", med (fun r -> median r.step_us));
      ("alloc.minor_words_per_op", "words/op", u.words /. ops);
      ("gc.major_per_op", "count/op", median (List.map (fun r -> fi r.majors) (warm untraced)) /. ops);
      ("trace.overhead_ratio", "x", ratio (med (fun r -> r.wall_s)) untraced_wall);
      ("trace.dropped", "count", fi fig2.Fig2.dropped);
      ("host.coverage", "ratio", med coverage);
      ("host.user_share", "ratio", share "user");
      ("host.hw_access_share", "ratio", share "hw.access");
      ("host.core_fault_share", "ratio", share "core.fault");
      ("host.hw_compute_share", "ratio", share "hw.compute");
      ("host.core_trap_share", "ratio", share "core.trap");
      ("host.unix_emu_syscall_share", "ratio", share "unix_emu.syscall");
      ("audit.host_ms", "ms", med (fun r -> r.audit_s *. 1000.0));
    ]

(* -- the run -- *)

let usage () =
  prerr_endline
    "usage: main.exe --workload fault_thrash|unix_procs|cluster_migrate --seed N --seconds S \
     --trace 0|1 [--tiny]";
  exit 2

let parse argv =
  let workload = ref None and seed = ref None and seconds = ref None and trace = ref None in
  let tiny = ref false in
  let int_arg s = match int_of_string_opt s with Some n -> n | None -> usage () in
  let rec go = function
    | "--workload" :: w :: tl when List.mem w workloads ->
      workload := Some w;
      go tl
    | "--seed" :: n :: tl ->
      seed := Some (int_arg n);
      go tl
    | "--seconds" :: n :: tl ->
      seconds := Some (float_of_int (int_arg n));
      go tl
    | "--trace" :: (("0" | "1") as t) :: tl ->
      trace := Some (t = "1");
      go tl
    | "--tiny" :: tl ->
      tiny := true;
      go tl
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some w, Some s, Some secs, Some t when secs > 0.0 -> (w, s, secs, t, !tiny)
  | _ -> usage ()

let json_metric (name, unit_, value) =
  (name, Json.Obj [ ("value", Json.Float value); ("unit", Json.String unit_) ])

let () =
  let name, seed, seconds, trace, tiny = parse Sys.argv in
  let start = now_s () in
  let elapsed () = now_s () -. start in
  let rep ~traced ~domains = rep ~name ~tiny ~seed ~traced ~domains in
  (* a traced cycle is untraced, traced and, on the cluster, untraced at
     two engine domains; an untraced cycle is one untraced rep *)
  let untraced = ref [] and traced = ref [] and d2 = ref [] in
  let cycles = ref 0 in
  while !cycles < 3 || elapsed () < seconds do
    untraced := rep ~traced:false ~domains:1 :: !untraced;
    if trace then begin
      traced := rep ~traced:true ~domains:1 :: !traced;
      if name = "cluster_migrate" then d2 := rep ~traced:false ~domains:2 :: !d2
    end;
    incr cycles
  done;
  let untraced = List.rev !untraced and traced = List.rev !traced and d2 = List.rev !d2 in
  (* determinism self-check: every rep of this commit and seed agrees *)
  let reference = fingerprint ~with_words:true (List.hd untraced) in
  let diffs =
    List.concat_map (fun r -> mismatches reference (fingerprint ~with_words:true r)) untraced
    @ List.concat_map
        (fun r -> mismatches (fingerprint ~with_words:false (List.hd untraced)) (fingerprint ~with_words:false r))
        (traced @ d2)
  in
  List.iter (fun d -> Printf.printf "determinism mismatch: %s\n" d) (List.sort_uniq compare diffs);
  let r = List.hd untraced in
  Printf.printf "workload %s seed %d: %d untraced reps, %d traced, %d at domains 2; %d ops per rep\n"
    name seed (List.length untraced) (List.length traced) (List.length d2) r.ops;
  Printf.printf "failures per rep:%s (error_rate %.6g)\n"
    (String.concat "" (List.map (fun (k, n) -> Printf.sprintf " %s=%d" k n) r.failures))
    (fi r.failed /. fi r.ops);
  List.iteri
    (fun i r ->
      Printf.printf "untraced rep %d: setup %.4f s, run %.4f s, reference %.5f s, heap %.1f MB\n" i
        r.setup_s r.wall_s r.ref_s
        (fi (r.heap_words * (Sys.word_size / 8)) /. 1048576.0))
    untraced;
  let n = r.latency_n in
  Printf.printf "latency samples per rep: %d (%d beyond p99, %d beyond p50)\n" n (n / 100) (n / 2);
  List.iter (fun (k, v) -> Printf.printf "count %s = %.17g\n" k v) r.counts;
  if trace then begin
    let t = List.hd traced in
    Printf.printf "host table (first traced rep, Engine.run = %.3f ms):\n" (fi t.run_ns /. 1e6);
    List.iter
      (fun (row, ns, words, calls) ->
        Printf.printf "  %-18s %9.3f ms  %5.1f%%  %10.0f words  %8d intervals\n" row (fi ns /. 1e6)
          (100.0 *. ratio (fi ns) (fi t.run_ns))
          words calls)
      t.host;
    let f = t.fig2 in
    Printf.printf "fig2 (%d complete faults, %d incomplete, %d trace events, %d dropped):\n"
      f.Fig2.faults f.Fig2.incomplete f.Fig2.events f.Fig2.dropped;
    Array.iteri (fun i s -> Printf.printf "  %-9s %8.2f us\n" s f.Fig2.mean_us.(i)) Fig2.steps;
    let m = f.Fig2.mean_us in
    Printf.printf
      "  trap+forward %.1f us (EXPERIMENTS.md M3: 32.0); handler+load+complete+resume %.1f us \
       (61.6); total %.1f us (93.6)\n"
      (m.(0) +. m.(1))
      (m.(2) +. m.(3) +. m.(4) +. m.(5))
      (Array.fold_left ( +. ) 0.0 m)
  end;
  let metrics = if trace then per_layer ~untraced ~traced ~d2 else end_to_end untraced in
  List.iter (fun (k, u, v) -> Printf.printf "%s = %.6g %s\n" k v u) metrics;
  let reps = untraced @ traced @ d2 in
  let attempted = List.fold_left (fun n r -> n + r.ops) 0 reps in
  let failed = List.fold_left (fun n r -> n + r.failed) 0 reps in
  (* a traced figure is only trusted when the trace is whole and the host
     table accounts for Engine.run *)
  let traced_ok = List.for_all (fun r -> r.fig2.Fig2.dropped = 0 && coverage r >= 0.95) traced in
  if not traced_ok then print_endline "traced run: trace entries dropped or host coverage below 0.95";
  let correct = diffs = [] && traced_ok in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int attempted);
            ("failed", Json.Int failed);
            ("metrics", Json.Obj (List.map json_metric metrics));
          ]));
  if not correct then exit 1
