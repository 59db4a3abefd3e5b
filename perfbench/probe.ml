(* Host-time attribution of a traced run, measured from outside the
   simulator.

   Benchmark thread bodies reach the simulator only through the wrappers
   below.  With the probe armed, every wrapper marks two transitions on one
   host timeline: [enter] just before the call leaves the thread body and
   [leave] just after control comes back into a thread body.  Because one
   domain runs every thread in turn, the interval from a transition to the
   next belongs to exactly one owner:

   - after [leave], the resumed body's own code ([user]);
   - after [enter], the call just made, up to the next body resume of any
     thread — its effect handling plus whatever the engine did before it
     next resumed a body.  An access is classed [core.fault] when the
     supervisor's [fault.forwarded] counter moved in that interval;
   - when no benchmark call is open — on entry to [Engine.run], and after a
     thread body has returned — the engine itself ([engine.self]).

   The rows therefore partition the host time of every timed [Engine.run],
   and minor words are split the same way.  Disarmed, each wrapper costs
   one branch. *)

type row = Engine | User | Access | Fault | Compute | Trap | Syscall

let rows = [| Engine; User; Access; Fault; Compute; Trap; Syscall |]

let row_name = function
  | Engine -> "engine.self"
  | User -> "user"
  | Access -> "hw.access"
  | Fault -> "core.fault"
  | Compute -> "hw.compute"
  | Trap -> "core.trap"
  | Syscall -> "unix_emu.syscall"

let row_index = function
  | Engine -> 0
  | User -> 1
  | Access -> 2
  | Fault -> 3
  | Compute -> 4
  | Trap -> 5
  | Syscall -> 6

let n_rows = Array.length rows
let now_ns () = Int64.to_int (Monotonic_clock.now ())

type t = {
  mutable armed : bool;
  mutable faults : unit -> int;  (** the nodes' summed [fault.forwarded] *)
  mutable owner : row;
  mutable since_ns : int;
  mutable since_words : float;
  mutable faults_at : int;
  ns : int array;  (** per row *)
  words : float array;  (** per row *)
  calls : int array;  (** intervals owned, per row *)
  mutable fault_ns : int array;  (** each [core.fault] interval, in order *)
  mutable n_fault_ns : int;
  mutable run_ns : int;  (** total host time inside [Engine.run] *)
}

let st =
  {
    armed = false;
    faults = (fun () -> 0);
    owner = Engine;
    since_ns = 0;
    since_words = 0.0;
    faults_at = 0;
    ns = Array.make n_rows 0;
    words = Array.make n_rows 0.0;
    calls = Array.make n_rows 0;
    fault_ns = Array.make 4096 0;
    n_fault_ns = 0;
    run_ns = 0;
  }

(** Arm (or disarm) the probe and zero its tables.  [faults] reads the
    forwarded-fault count the access classification watches. *)
let arm ~faults on =
  st.armed <- on;
  st.faults <- faults;
  Array.fill st.ns 0 n_rows 0;
  Array.fill st.words 0 n_rows 0.0;
  Array.fill st.calls 0 n_rows 0;
  st.n_fault_ns <- 0;
  st.run_ns <- 0

(* also drops the counter closure, which holds the rep's nodes *)
let disarm () =
  st.armed <- false;
  st.faults <- (fun () -> 0)

let push_fault_ns d =
  if st.n_fault_ns = Array.length st.fault_ns then begin
    let a = Array.make (2 * st.n_fault_ns) 0 in
    Array.blit st.fault_ns 0 a 0 st.n_fault_ns;
    st.fault_ns <- a
  end;
  st.fault_ns.(st.n_fault_ns) <- d;
  st.n_fault_ns <- st.n_fault_ns + 1

(* Close the open interval, charging it to its owner, and open the next. *)
let transition next =
  let t = now_ns () in
  let w = Gc.minor_words () in
  let owner =
    if st.owner = Access && st.faults () <> st.faults_at then Fault else st.owner
  in
  let i = row_index owner in
  let d = t - st.since_ns in
  st.ns.(i) <- st.ns.(i) + d;
  st.words.(i) <- st.words.(i) +. (w -. st.since_words);
  st.calls.(i) <- st.calls.(i) + 1;
  if owner = Fault then push_fault_ns d;
  st.owner <- next;
  if next = Access then st.faults_at <- st.faults ();
  st.since_ns <- t;
  st.since_words <- w

let[@inline] enter row = if st.armed then transition row
let[@inline] leave () = if st.armed then transition User

(** [Engine.run], timed and attributed when armed. *)
let engine_run ?until_us ?domains insts =
  if not st.armed then ignore (Cachekernel.Engine.run ?until_us ?domains insts)
  else begin
    let t0 = now_ns () in
    st.owner <- Engine;
    st.since_ns <- t0;
    st.since_words <- Gc.minor_words ();
    ignore (Cachekernel.Engine.run ?until_us ?domains insts);
    (* charge the last open interval; nothing is attributed between runs *)
    transition Engine;
    st.run_ns <- st.run_ns + (now_ns () - t0)
  end

(** Wrap a thread body: its first instruction is a resume, its return hands
    the processor back to the engine. *)
let body f () =
  leave ();
  f ();
  enter Engine;
  Hw.Exec.Unit_payload

(** Wrap a UNIX program's [main] the same way. *)
let main f () =
  leave ();
  let code = f () in
  enter Syscall;
  code

(* -- the calls benchmark bodies make -- *)

let mem_read va =
  enter Access;
  let v = Hw.Exec.mem_read va in
  leave ();
  v

let mem_write va x =
  enter Access;
  Hw.Exec.mem_write va x;
  leave ()

let compute n =
  enter Compute;
  Hw.Exec.compute n;
  leave ()

let trap p =
  enter Trap;
  let r = Hw.Exec.trap p in
  leave ();
  r

let time_us () =
  enter Compute;
  let r = Hw.Exec.time_us () in
  leave ();
  r

let syscall f x =
  enter Syscall;
  let r = f x in
  leave ();
  r

(** Mean host time of the first and the last tenth of [core.fault]
    intervals, in ns. *)
let fault_tenths () =
  let n = st.n_fault_ns in
  let k = n / 10 in
  if k = 0 then (0.0, 0.0)
  else
    let mean lo =
      let s = ref 0 in
      for i = lo to lo + k - 1 do
        s := !s + st.fault_ns.(i)
      done;
      float_of_int !s /. float_of_int k
    in
    (mean 0, mean (n - k))
