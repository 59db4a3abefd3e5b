(* cluster_migrate: eight nodes of two CPUs on one interconnect, with the
   heartbeat failure detector and the load balancer on and compute+yield
   load of seeded burst length on every CPU.  Each node starts with one data space holding a
   seeded, dirty 16-page working set.  A closed loop moves every space one
   node along the ring with [Migrate.Plane.move_space], waits until all
   moves of the round are committed, checks each space's contents where it
   landed, and starts the next round.

   The engine's multi-node window and barrier, Hw.Interconnect,
   Srm.Distrib and Migrate.Plane/Codec do the work here; the fault path
   does almost none. *)

open Cachekernel
open Aklib
module C = Workload.Cluster

let nodes = 8
let cpus = 2
let ws_pages = 16
let base = 0x40000000

(* simulated time the loop advances between checks for committed moves *)
let slice_us = 250.0

(* a round whose moves have not all committed after this long has failed *)
let round_deadline_us = 200_000.0

type space = {
  name : string;
  digest : Digest.t;
  mutable at : int;  (** node holding the space *)
  mutable tag : int;  (** its tag there *)
}

type t = {
  c : C.t;
  domains : int;
  rounds : int;
  spaces : space array;
  stop : bool ref;
  mutable bad_image : int;
  mutable stalled : int;
  mutable issued : int;
  mutable t0_us : float;
}

let config =
  {
    Config.default with
    Config.heartbeat_interval_us = 300.0;
    suspect_timeout_us = 100_000.0;
    balance_interval_us = 2_000.0;
  }

let ak t i = (C.srm t.c i).Srm.Manager.ak
let plane t i = Srm.Distrib.plane (C.dist t.c i)
let counter t i name = Metrics.counter (C.inst t.c i).Instance.metrics name
let now_us t = Hw.Cost.us_of_cycles (C.live_now t.c)

(* A segment's current contents, wherever each page lives. *)
let rec page_bytes (ak : App_kernel.t) seg page =
  let size = Hw.Addr.page_size in
  match Segment.state seg page with
  | Segment.Zero -> Bytes.make size '\000'
  | Segment.In_memory r ->
    Hw.Phys_mem.read_bytes ak.App_kernel.inst.Instance.node.Hw.Mpm.mem (r.Segment.pfn * size) size
  | Segment.On_disk block -> Backing_store.read_block_now ak.App_kernel.store ~block
  | Segment.Cow_of (src, p) -> page_bytes ak src p

let find_space (ak : App_kernel.t) name =
  Hashtbl.fold
    (fun _ (vsp : Segment_mgr.vspace) acc ->
      match vsp.Segment_mgr.regions with
      | [ r ] when r.Region.segment.Segment.name = name -> Some (vsp, r.Region.segment)
      | _ -> acc)
    ak.App_kernel.mgr.Segment_mgr.spaces None

let image_digest ak seg =
  Digest.bytes (Bytes.concat Bytes.empty (List.init ws_pages (page_bytes ak seg)))

let setup ?(domains = 1) ~tiny ~seed () =
  let rounds = if tiny then 2 else 125 in
  let c = C.create ~config:(Outcome.configure config) ~cpus ~n:nodes () in
  Outcome.start_trace (C.insts c);
  let stop = ref false in
  let rng = Outcome.rng ~seed 3 in
  let spaces =
    Array.init nodes (fun i ->
        let ak = (C.srm c i).Srm.Manager.ak in
        let mgr = ak.App_kernel.mgr in
        let name = Printf.sprintf "ds%d" i in
        let vsp = Outcome.ok "create_space" (Segment_mgr.create_space mgr) in
        let seg = Segment_mgr.create_segment mgr ~name ~pages:ws_pages in
        let image =
          Bytes.init (ws_pages * Hw.Addr.page_size) (fun _ -> Char.chr (Random.State.int rng 256))
        in
        Segment_mgr.write_segment_now mgr seg ~offset:0 image;
        Segment_mgr.attach_region mgr vsp
          (Region.v ~va_start:base ~pages:ws_pages ~segment:seg ~seg_offset:0 ());
        { name; digest = Digest.bytes image; at = i; tag = vsp.Segment_mgr.tag })
  in
  for i = 0 to nodes - 1 do
    for _ = 1 to cpus do
      let burst = 1_900 + Random.State.int rng 200 in
      let body () =
        while not !stop do
          Probe.compute burst;
          ignore (Probe.trap Api.Ck_yield)
        done
      in
      ignore
        (Outcome.ok "load"
           (App_kernel.spawn_internal (C.srm c i).Srm.Manager.ak ~priority:4 (Probe.body body)))
    done
  done;
  let t =
    {
      c;
      domains;
      rounds;
      spaces;
      stop;
      bad_image = 0;
      stalled = 0;
      issued = 0;
      t0_us = 0.0;
    }
  in
  (* let heartbeats and load reports settle before the first move *)
  Probe.engine_run ~until_us:2_000.0 ~domains (C.insts c);
  t

(* One round: every space moves one node along the ring. *)
let round t =
  let moving =
    Array.map
      (fun s ->
        let dst = (s.at + 1) mod nodes in
        let before = counter t s.at "migrate.completed" in
        t.issued <- t.issued + 1;
        match Migrate.Plane.move_space (plane t s.at) ~dst s.tag with
        | Ok _ -> Some (s, dst, before)
        | Error _ -> None)
      t.spaces
  in
  let deadline = now_us t +. round_deadline_us in
  let done_ () =
    Array.for_all
      (function Some (s, _, before) -> counter t s.at "migrate.completed" > before | None -> true)
      moving
  in
  while (not (done_ ())) && now_us t < deadline do
    Probe.engine_run ~until_us:(now_us t +. slice_us) ~domains:t.domains (C.insts t.c)
  done;
  Array.iter
    (function
      | None -> t.stalled <- t.stalled + 1
      | Some (s, dst, before) -> (
        match find_space (ak t dst) s.name with
        | Some (vsp, seg) when counter t s.at "migrate.completed" > before ->
          if not (Digest.equal (image_digest (ak t dst) seg) s.digest) then
            t.bad_image <- t.bad_image + 1;
          s.at <- dst;
          s.tag <- vsp.Segment_mgr.tag
        | _ -> t.stalled <- t.stalled + 1))
    moving

let run t =
  t.t0_us <- now_us t;
  for _ = 1 to t.rounds do
    round t
  done;
  t.stop := true

let finish t =
  let sim_us = now_us t -. t.t0_us in
  let insts = C.insts t.c in
  let ledgers = List.init nodes (fun i -> Srm.Manager.ledger (C.srm t.c i)) in
  let violations = Outcome.audit ~ledgers insts in
  let latency = Metrics.hist (Metrics.create ()) "pause_us" in
  Array.iter
    (fun (i : Instance.t) ->
      let h = Metrics.hist i.Instance.metrics "migrate.pause_us" in
      Array.iteri
        (fun b n -> latency.Metrics.buckets.(b) <- latency.Metrics.buckets.(b) + n)
        h.Metrics.buckets;
      latency.Metrics.h_count <- latency.Metrics.h_count + h.Metrics.h_count;
      latency.Metrics.sum <- latency.Metrics.sum +. h.Metrics.sum;
      latency.Metrics.vmin <- Float.min latency.Metrics.vmin h.Metrics.vmin;
      latency.Metrics.vmax <- Float.max latency.Metrics.vmax h.Metrics.vmax)
    insts;
  let ops = t.rounds * nodes in
  {
    Outcome.ops;
    failed = min ops (t.bad_image + t.stalled + violations);
    sim_us;
    latency = Outcome.of_hist latency;
    insts;
    aks = List.init nodes (fun i -> ak t i);
    syscalls = 0;
    net = Some (C.net t.c);
    moves_issued = t.issued;
    failures = [ ("bad_image", t.bad_image); ("not_committed", t.stalled); ("audit", violations) ];
  }

let prepare ?domains ~tiny ~seed () =
  let t = setup ?domains ~tiny ~seed () in
  {
    Outcome.insts = C.insts t.c;
    run = (fun () -> run t);
    finish = (fun () -> finish t);
    planes = Array.init nodes (plane t);
  }
