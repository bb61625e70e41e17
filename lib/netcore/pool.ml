(* Fixed-size domain pool. One shared batch slot: the submitter installs
   a batch under the mutex and bumps the generation counter; workers pull
   item indices from an atomic cursor, so batch items are load-balanced
   across domains without per-item locking. Completion is tracked under
   the mutex to let the submitter sleep on a condition variable. *)

type batch = {
  total : int;
  next : int Atomic.t;
  mutable completed : int;  (* guarded by the pool mutex *)
  worker : unit -> int -> unit;
      (* [worker ()] runs the per-worker init and returns the item
         runner; the runner never raises (exceptions are stored in the
         result slots by the submitter's closures). *)
}

type t = {
  m : Mutex.t;
  work_ready : Condition.t;
  batch_done : Condition.t;
  mutable batch : batch option;
  mutable generation : int;
  mutable stop : bool;
  mutable busy : bool;
  mutable workers : unit Domain.t array;
  size : int;
}

let size t = t.size

let rec worker_loop t last_gen =
  Mutex.lock t.m;
  while (not t.stop) && (t.generation = last_gen || t.batch = None) do
    Condition.wait t.work_ready t.m
  done;
  if t.stop then Mutex.unlock t.m
  else begin
    let gen = t.generation in
    let b = Option.get t.batch in
    Mutex.unlock t.m;
    let run_item = b.worker () in
    let rec drain () =
      let i = Atomic.fetch_and_add b.next 1 in
      if i < b.total then begin
        run_item i;
        Mutex.lock t.m;
        b.completed <- b.completed + 1;
        if b.completed = b.total then Condition.broadcast t.batch_done;
        Mutex.unlock t.m;
        drain ()
      end
    in
    drain ();
    worker_loop t gen
  end

let create ?domains () =
  let n =
    match domains with
    | Some n -> max 1 n
    | None -> max 1 (Domain.recommended_domain_count ())
  in
  let t =
    { m = Mutex.create (); work_ready = Condition.create ();
      batch_done = Condition.create (); batch = None; generation = 0;
      stop = false; busy = false; workers = [||]; size = n }
  in
  t.workers <- Array.init n (fun _ -> Domain.spawn (fun () -> worker_loop t 0));
  t

let map_init t ~init f items =
  let arr = Array.of_list items in
  let n = Array.length arr in
  if n = 0 then []
  else begin
    let results = Array.make n None in
    let errors = Array.make n None in
    let worker () =
      (* A failing init poisons only the items this worker pulls; other
         workers (whose init succeeded) keep draining the batch. *)
      let state =
        try Ok (init ()) with e -> Error (e, Printexc.get_raw_backtrace ())
      in
      fun i ->
        match state with
        | Error (e, bt) -> errors.(i) <- Some (e, bt)
        | Ok s -> (
          try results.(i) <- Some (f s arr.(i))
          with e -> errors.(i) <- Some (e, Printexc.get_raw_backtrace ()))
    in
    let b = { total = n; next = Atomic.make 0; completed = 0; worker } in
    Mutex.lock t.m;
    if t.stop then begin
      Mutex.unlock t.m;
      invalid_arg "Pool: pool is shut down"
    end;
    if t.busy then begin
      Mutex.unlock t.m;
      invalid_arg "Pool: concurrent batch submission"
    end;
    t.busy <- true;
    t.batch <- Some b;
    t.generation <- t.generation + 1;
    Condition.broadcast t.work_ready;
    while b.completed < b.total do
      Condition.wait t.batch_done t.m
    done;
    t.batch <- None;
    t.busy <- false;
    Mutex.unlock t.m;
    Array.iter
      (function
        | Some (e, bt) -> Printexc.raise_with_backtrace e bt
        | None -> ())
      errors;
    Array.to_list (Array.map Option.get results)
  end

let map t f items = map_init t ~init:(fun () -> ()) (fun () x -> f x) items

let shutdown t =
  Mutex.lock t.m;
  let ws = t.workers in
  t.stop <- true;
  t.workers <- [||];
  Condition.broadcast t.work_ready;
  Mutex.unlock t.m;
  Array.iter Domain.join ws

let with_pool ?domains f =
  let t = create ?domains () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
