(* fault_thrash: one node, one CPU, one thread reading and checking a
   pre-resident segment eight times the size of the mapping cache — the
   paper's C2 shape.  About 7/8 of accesses become forwarded faults
   (Figure 2) with no disk, IPC or object churn, so the run is almost all
   supervisor fault path: engine effect handling, Api mapping loads,
   mapping replacement and the Segment_mgr handler. *)

open Cachekernel
open Aklib

let base = 0x40000000

type t = {
  inst : Instance.t;
  ak : App_kernel.t;
  ops : int;
  latency : float array;  (** simulated us of each checked access *)
  mutable bad : int;
  mutable checked : int;
  mutable t0_us : float;
}

let setup ~tiny ~seed =
  let pages, cache, passes = if tiny then (64, 16, 4) else (2048, 256, 8) in
  let config = Outcome.configure { Config.default with Config.mapping_cache = cache } in
  let inst = Workload.Setup.instance ~config ~cpus:1 () in
  Outcome.start_trace [| inst |];
  let ak = Workload.Setup.first_kernel inst in
  let mgr = ak.App_kernel.mgr in
  let vsp = Outcome.ok "create_space" (Segment_mgr.create_space mgr) in
  let seg = Segment_mgr.create_segment mgr ~name:"thrash" ~pages in
  Segment_mgr.attach_region mgr vsp
    (Region.v ~va_start:base ~pages ~segment:seg ~seg_offset:0 ());
  (* pre-resident and seeded: each page's first word holds its value *)
  let rng = Outcome.rng ~seed 1 in
  let values = Array.init pages (fun _ -> Random.State.bits rng) in
  let image = Bytes.make (pages * Hw.Addr.page_size) '\000' in
  Array.iteri
    (fun p v -> Bytes.set_int32_le image (p * Hw.Addr.page_size) (Int32.of_int v))
    values;
  Segment_mgr.write_segment_now mgr seg ~offset:0 image;
  let order = Array.init passes (fun _ -> Outcome.permutation rng pages) in
  let ops = passes * pages in
  let t = { inst; ak; ops; latency = Array.make ops 0.0; bad = 0; checked = 0; t0_us = 0.0 } in
  (* The one CPU's clock is read directly, not through an effect, so the
     timing costs no simulated time and no engine step. *)
  let body () =
    Array.iter
      (Array.iter (fun p ->
           let at = Hw.Mpm.now inst.Instance.node in
           let v = Probe.mem_read (base + (p * Hw.Addr.page_size)) in
           t.latency.(t.checked) <- Hw.Cost.us_of_cycles (Hw.Mpm.now inst.Instance.node - at);
           t.checked <- t.checked + 1;
           if v <> values.(p) then t.bad <- t.bad + 1))
      order
  in
  ignore
    (Outcome.ok "spawn"
       (Thread_lib.spawn ak.App_kernel.threads ~space_tag:vsp.Segment_mgr.tag ~priority:8
          (Probe.body body)));
  t

let run t =
  t.t0_us <- Workload.Setup.now_us t.inst;
  Probe.engine_run [| t.inst |]

let finish t =
  let sim_us = Workload.Setup.now_us t.inst -. t.t0_us in
  let unchecked = t.ops - t.checked in
  let violations = Outcome.audit [| t.inst |] in
  {
    Outcome.ops = t.ops;
    failed = t.bad + unchecked + violations;
    sim_us;
    latency = Outcome.of_samples (Array.to_list (Array.sub t.latency 0 t.checked));
    insts = [| t.inst |];
    aks = [ t.ak ];
    syscalls = 0;
    net = None;
    moves_issued = 0;
    failures = [ ("wrong_value", t.bad); ("unchecked", unchecked); ("audit", violations) ];
  }

let prepare ~tiny ~seed =
  let t = setup ~tiny ~seed in
  { Outcome.insts = [| t.inst |]; run = (fun () -> run t); finish = (fun () -> finish t); planes = [||] }
