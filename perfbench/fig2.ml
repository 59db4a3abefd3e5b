(* Figure 2's six steps, reduced from the supervisor's event trace.

   Each forwarded fault emits, in order, Fault_trap, Forward_to_kernel,
   Handler_running, Mapping_loaded (for the faulting page),
   Exception_complete and Thread_resumed.  A step's time is the simulated
   time from its event to the next step's event.  The model charges the
   exception return before Exception_complete and stamps Exception_complete
   and Thread_resumed at one instant, so [complete] reads 0, and [resume],
   the last step, has no later event and reads 0.  Faults whose events do
   not arrive in that order (a handler that blocked and was overtaken) are
   counted as incomplete rather than guessed at. *)

open Cachekernel

let steps = [| "trap"; "forward"; "handler"; "load"; "complete"; "resume" |]

type t = {
  faults : int;  (** faults with all six events in order *)
  incomplete : int;
  mean_us : float array;  (** per step *)
  dropped : int;  (** trace entries overwritten: must be 0 *)
  events : int;
}

let empty = { faults = 0; incomplete = 0; mean_us = Array.make 6 0.0; dropped = 0; events = 0 }

(* one fault in flight per thread: the stamps seen so far *)
type open_fault = { page : int; stamps : int array; mutable next : int }

let reduce (insts : Instance.t array) =
  let sums = Array.make 6 0 in
  let faults = ref 0 and incomplete = ref 0 and dropped = ref 0 and events = ref 0 in
  Array.iter
    (fun (inst : Instance.t) ->
      let tr = inst.Instance.trace in
      dropped := !dropped + Trace.dropped tr;
      events := !events + Trace.length tr;
      let pending : (Oid.t, open_fault) Hashtbl.t = Hashtbl.create 16 in
      let advance thread k time =
        match Hashtbl.find_opt pending thread with
        | Some f when f.next = k ->
          f.stamps.(k) <- time;
          f.next <- k + 1;
          if k = 5 then begin
            Hashtbl.remove pending thread;
            incr faults;
            for s = 0 to 4 do
              sums.(s) <- sums.(s) + (f.stamps.(s + 1) - f.stamps.(s))
            done
          end
        | Some _ ->
          Hashtbl.remove pending thread;
          incr incomplete
        | None -> ()
      in
      Trace.iter tr (fun { Trace.time; event } ->
          match event with
          | Trace.Fault_trap { thread; va; _ } ->
            if Hashtbl.mem pending thread then incr incomplete;
            let stamps = Array.make 6 0 in
            stamps.(0) <- time;
            Hashtbl.replace pending thread { page = Hw.Addr.page_base va; stamps; next = 1 }
          | Trace.Forward_to_kernel { thread; _ } -> advance thread 1 time
          | Trace.Handler_running { thread } -> advance thread 2 time
          | Trace.Mapping_loaded { va; _ } -> (
            (* the load names a space, not a thread: match the faulting page *)
            let hit =
              Hashtbl.fold
                (fun th f acc -> if f.next = 3 && f.page = va then Some th else acc)
                pending None
            in
            match hit with Some th -> advance th 3 time | None -> ())
          | Trace.Exception_complete { thread } -> advance thread 4 time
          | Trace.Thread_resumed { thread } -> advance thread 5 time
          | _ -> ());
      incomplete := !incomplete + Hashtbl.length pending)
    insts;
  let n = !faults in
  let mean_us =
    Array.init 6 (fun s ->
        if n = 0 || s = 5 then 0.0 else Hw.Cost.us_of_cycles sums.(s) /. float_of_int n)
  in
  { faults = n; incomplete = !incomplete; mean_us; dropped = !dropped; events = !events }
