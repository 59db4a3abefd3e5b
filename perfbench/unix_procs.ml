(* unix_procs: the UNIX emulator as an ordinary application kernel, under
   its decay scheduler, on a node with two CPUs.  [init] runs a closed
   loop of rounds; each round spawns eight workers and one copy-on-write
   child, then reaps them all.  A worker writes a seeded pattern to its
   data pages and to a file, re-reads both several times between bursts of
   computation of seeded length, and exits with a code saying whether
   everything read back intact.  The emulator's frame pool is bounded below the live processes'
   working set, so dirty pages page out and back in.

   Same fault path as fault_thrash, but with writes beside reads, plus COW,
   page-out/page-in through Backing_store and the disk, trap forwarding and
   thread/space load and unload for every process. *)

open Cachekernel
open Unix_emu

let workers_per_round = 8
let data_pages = 8
let text_pages = 2

(* Free frames left to the emulator once booted: below the ~100 pages the
   nine live processes of a round touch, so their dirty pages must page
   out and back in. *)
let free_frames = 48
let rereads = 3
let file_bytes = 96

(* worker exit codes: a bit per kind of damaged read-back *)
let bad_memory = 1
let bad_file = 2

type t = {
  inst : Instance.t;
  emu : Emulator.t;
  mutable sched : Sched.t option;
  ops : int;
  mutable latency : float list;  (** spawn-to-reap, simulated us *)
  mutable reaped : int;
  mutable bad_memory : int;
  mutable bad_file : int;
  mutable bad_cow : int;
  mutable lost : int;  (** stray reaps and exit codes no check produced *)
  mutable t0_us : float;
}

let va page = Process.data_base + (page * Hw.Addr.page_size)

let worker ~name ~values ~text ~burst =
  Syscall.program ~text_pages ~data_pages name
    (Probe.main (fun () ->
         Array.iteri (fun p v -> Probe.mem_write (va p) v) values;
         let fd = Probe.syscall Syscall.creat name in
         ignore (Probe.syscall (Syscall.write_file fd) text);
         Probe.syscall Syscall.close fd;
         let code = ref 0 in
         for _ = 1 to rereads do
           Probe.compute burst;
           Array.iteri
             (fun p v -> if Probe.mem_read (va p) <> v then code := !code lor bad_memory)
             values;
           let fd = Probe.syscall Syscall.open_file name in
           let back = Probe.syscall (Syscall.read_file fd) file_bytes in
           Probe.syscall Syscall.close fd;
           if back <> text then code := !code lor bad_file
         done;
         !code))

(* The COW child checks the parent's image it inherited, then overwrites
   it privately; the parent checks its own copy afterwards. *)
let cow_child ~values =
  Syscall.program ~text_pages ~data_pages "cow"
    (Probe.main (fun () ->
         let code = ref 0 in
         Array.iteri
           (fun p v ->
             if Probe.mem_read (va p) <> v then code := bad_memory;
             Probe.mem_write (va p) (v lxor 0x55))
           values;
         !code))

(* One session: a freshly booted node whose [init] runs [rounds] rounds. *)
let session ~rounds ~rng =
  let inst = Workload.Setup.instance ~config:(Outcome.configure Config.default) ~cpus:2 () in
  Outcome.start_trace [| inst |];
  let groups = List.init (Instance.n_groups inst) Fun.id in
  let emu = Outcome.ok "boot" (Emulator.boot inst ~groups) in
  let frames = emu.Emulator.ak.Aklib.App_kernel.frames in
  ignore (Aklib.Frame_alloc.take frames (Aklib.Frame_alloc.available frames - free_frames));
  let word () = Random.State.bits rng in
  let text () = String.init file_bytes (fun _ -> Char.chr (32 + Random.State.int rng 95)) in
  let plan =
    Array.init rounds (fun r ->
        let parent = Array.init data_pages (fun _ -> word ()) in
        let workers =
          Array.init workers_per_round (fun j ->
              worker
                ~name:(Printf.sprintf "/w%d.%d" r j)
                ~values:(Array.init data_pages (fun _ -> word ()))
                ~text:(text ())
                ~burst:(19_000 + Random.State.int rng 2_000))
        in
        (parent, workers))
  in
  let t =
    {
      inst;
      emu;
      sched = None;
      ops = rounds * (workers_per_round + 1);
      latency = [];
      reaped = 0;
      bad_memory = 0;
      bad_file = 0;
      bad_cow = 0;
      lost = 0;
      t0_us = 0.0;
    }
  in
  let round (parent, workers) =
    Array.iteri (fun p v -> Probe.mem_write (va p) v) parent;
    let spawned = Hashtbl.create 16 in
    let spawn ?inherit_memory prog cow =
      let at = Probe.time_us () in
      let pid = Probe.syscall (Syscall.spawn ?inherit_memory) prog in
      (* a failed spawn is never reaped, so it counts as unreaped *)
      if pid >= 0 then Hashtbl.replace spawned pid (at, cow)
    in
    Array.iter (fun w -> spawn w false) workers;
    spawn ~inherit_memory:true (cow_child ~values:parent) true;
    for _ = 1 to Hashtbl.length spawned do
      let pid, code = Probe.syscall Syscall.wait () in
      match Hashtbl.find_opt spawned pid with
      | None -> t.lost <- t.lost + 1
      | Some (at, cow) ->
        t.latency <- (Probe.time_us () -. at) :: t.latency;
        t.reaped <- t.reaped + 1;
        if cow then begin
          let intact = ref (code = 0) in
          Array.iteri (fun p v -> if Probe.mem_read (va p) <> v then intact := false) parent;
          if not !intact then t.bad_cow <- t.bad_cow + 1
        end
        else begin
          if code land lnot (bad_memory lor bad_file) <> 0 then t.lost <- t.lost + 1
          else if code land bad_memory <> 0 then t.bad_memory <- t.bad_memory + 1
          else if code land bad_file <> 0 then t.bad_file <- t.bad_file + 1
        end
    done
  in
  let init =
    Syscall.program ~text_pages ~data_pages "init"
      (Probe.main (fun () ->
           Array.iter round plan;
           0))
  in
  ignore (Outcome.ok "init" (Emulator.start_init emu init));
  t.sched <- Some (Outcome.ok "sched" (Sched.start emu ~interval_us:10_000.0));
  t

(* A repetition runs several independent sessions one after another.
   Under this frame pressure a session's simulated time swings by about a
   tenth with small changes in timing, so the seed alone moves a single
   session's figures that much; pooling sessions keeps the seed-to-seed
   spread of the reported figures small. *)
let sessions = 4

let prepare ~tiny ~seed =
  let rounds = if tiny then 2 else 112 in
  let rng = Outcome.rng ~seed 2 in
  let ss = Array.init (if tiny then 1 else sessions) (fun _ -> session ~rounds ~rng) in
  let insts = Array.map (fun t -> t.inst) ss in
  let run () =
    Array.iter
      (fun t ->
        t.t0_us <- Workload.Setup.now_us t.inst;
        Probe.engine_run [| t.inst |])
      ss
  in
  let finish () =
    let sum f = Array.fold_left (fun n t -> n + f t) 0 ss in
    Array.iter (fun t -> Option.iter Sched.stop t.sched) ss;
    let ops = sum (fun t -> t.ops) in
    let failures =
      [
        ("foreign_memory", sum (fun t -> t.bad_memory));
        ("bad_file", sum (fun t -> t.bad_file));
        ("bad_cow", sum (fun t -> t.bad_cow));
        ("lost", sum (fun t -> t.lost));
        ("unreaped", ops - sum (fun t -> t.reaped));
        ("audit", Outcome.audit insts);
      ]
    in
    {
      Outcome.ops;
      failed = min ops (List.fold_left (fun n (_, k) -> n + k) 0 failures);
      sim_us =
        Array.fold_left (fun acc t -> acc +. (Workload.Setup.now_us t.inst -. t.t0_us)) 0.0 ss;
      latency = Outcome.of_samples (List.concat_map (fun t -> t.latency) (Array.to_list ss));
      insts;
      aks = Array.to_list (Array.map (fun t -> t.emu.Emulator.ak) ss);
      syscalls = sum (fun t -> t.emu.Emulator.syscalls);
      net = None;
      moves_issued = 0;
      failures;
    }
  in
  { Outcome.insts; run; finish; planes = [||] }
