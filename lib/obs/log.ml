type level = Quiet | Warn | Info

let rank = function Quiet -> 0 | Warn -> 1 | Info -> 2

let current = Atomic.make (rank Warn)

let set_level l = Atomic.set current (rank l)

let set_verbosity n =
  set_level (if n < 0 then Quiet else if n = 0 then Warn else Info)

let level () =
  match Atomic.get current with
  | 0 -> Quiet
  | 1 -> Warn
  | _ -> Info

(* stderr writes from pool workers are serialized per message. *)
let m = Mutex.create ()

let logf lvl tag fmt =
  if rank lvl > Atomic.get current then Format.ifprintf Format.err_formatter fmt
  else
    Format.kasprintf
      (fun msg ->
        Mutex.lock m;
        Printf.eprintf "[bdrmap %s] %s\n%!" tag msg;
        Mutex.unlock m)
      fmt

let warn fmt = logf Warn "warn" fmt
let info fmt = logf Info "info" fmt
