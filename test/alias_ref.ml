(* Reference model for alias grouping: the naive scans that check the
   frozen address table ([Alias_graph.freeze]) and the router graph. A
   group is found by testing every mentioned address against [a] with a
   [same_router] predicate, so one lookup costs a test per mentioned
   address. Optimised paths are checked against this, never against
   each other. *)

open Netcore

(* Evidence and queries by address over the registry's ids: an address
   registers on first sight as evidence names it, and two addresses are
   one router when equal or merged. *)
let add_alias g a b =
  let id = Aliasres.Alias_graph.Uf.intern g ~observed:false in
  Aliasres.Alias_graph.Uf.union g (id a) (id b)

let add_not_alias g a b =
  let id = Aliasres.Alias_graph.Uf.intern g ~observed:false in
  Aliasres.Alias_graph.Uf.separate g (id a) (id b)

let same_router g a b =
  let id = Aliasres.Alias_graph.Uf.lookup g in
  Ipv4.equal a b || Aliasres.Alias_graph.Uf.same g (id a) (id b)

(* [group_of same ~mentioned a] is the sorted alias set containing [a]
   under [same]; [mentioned] lists every address the evidence named. An
   address never mentioned is its own singleton router. *)
let group_of same ~mentioned a =
  match List.filter (fun x -> same x a) mentioned with
  | [] -> [ a ]
  | grp -> List.sort_uniq Ipv4.compare grp

(* [partition same ~mentioned] is every mentioned address's group, each
   once, in the order [Alias_graph.groups] documents. *)
let partition same ~mentioned =
  List.sort_uniq compare (List.map (group_of same ~mentioned) mentioned)

(* [table_id t a] is [a]'s id in the frozen table [t], found by a scan
   over every id, or [None]. *)
let table_id t a =
  List.find_opt
    (fun i -> Ipv4.equal (Aliasres.Alias_graph.addr t i) a)
    (List.init (Aliasres.Alias_graph.length t) Fun.id)

(* [table_same t a b] asks the frozen table [t] what [same_router]
   answers while probing: one address, or two ids of one group. The
   scan runs once per partial application [table_same t]. *)
let table_same t =
  let group = Hashtbl.create 256 in
  for i = 0 to Aliasres.Alias_graph.length t - 1 do
    Hashtbl.replace group (Aliasres.Alias_graph.addr t i) (Aliasres.Alias_graph.group t i)
  done;
  fun a b ->
    Ipv4.equal a b
    ||
    match (Hashtbl.find_opt group a, Hashtbl.find_opt group b) with
    | Some g, Some h -> g = h
    | _ -> false

(* {2 Candidate alias pairs}

   The address-keyed build collection used before it ran on registry
   ids: per-address neighbour lists in [Hashtbl]s keyed by address,
   deduplicated through tables of address pairs. [Collect.candidate_pairs]
   must name the same pairs in the same order (its test order decides
   which probes are sent). Hops name [uf]'s ids; pairs come out as
   addresses, lower first. *)
let candidate_pairs (cfg : Bdrmap.Config.t) uf traces =
  let addr = Aliasres.Alias_graph.Uf.addr uf in
  let seen = Hashtbl.create 4096 in
  let pairs = ref [] in
  let count = ref 0 in
  let note a b =
    if (not (Ipv4.equal a b)) && !count < cfg.max_alias_candidates then begin
      let key = if Ipv4.compare a b <= 0 then (a, b) else (b, a) in
      if not (Hashtbl.mem seen key) then begin
        Hashtbl.add seen key ();
        incr count;
        pairs := key :: !pairs
      end
    end
  in
  let preds = Hashtbl.create 4096 and succs = Hashtbl.create 4096 in
  let succ_seen = Hashtbl.create 4096 and pred_seen = Hashtbl.create 4096 in
  let note_adj tbl edge_seen k v =
    if not (Hashtbl.mem edge_seen (k, v)) then begin
      Hashtbl.add edge_seen (k, v) ();
      Hashtbl.replace tbl k (v :: Option.value ~default:[] (Hashtbl.find_opt tbl k))
    end
  in
  List.iter
    (Bdrmap.Trace.iter_pairs (fun i j _ ->
         let a = addr i and b = addr j in
         note_adj succs succ_seen a b;
         note_adj preds pred_seen b a))
    traces;
  let all_pairs l = List.iteri (fun i a -> List.iteri (fun j b -> if j > i then note a b) l) l in
  Hashtbl.iter (fun _ l -> all_pairs l) succs;
  Hashtbl.iter (fun _ l -> all_pairs l) preds;
  List.rev !pairs

(* {2 Ally over lists}

   The list-based trial: samples gathered as tagged pairs, each
   address's own sequence filtered back out of the merged one. *)
let monotonic = function
  | [] | [ _ ] -> true
  | first :: _ as ids ->
    let rec go prev advance = function
      | [] -> true
      | id :: rest ->
        let d = (id - prev) land 0xFFFF in
        if d = 0 || d >= 32768 then false
        else if advance + d >= 65536 then false
        else go id (advance + d) rest
    in
    go first 0 (List.tl ids)

(* Each round samples [a], then [b], even when [a] is silent. *)
let ally_trial sampler a b ~samples =
  let rec collect i acc =
    if i >= samples then Some (List.rev acc)
    else
      let sa = sampler a in
      let sb = sampler b in
      match (sa, sb) with
      | Some ia, Some ib -> collect (i + 1) ((ib, `B) :: (ia, `A) :: acc)
      | _ -> None
  in
  match collect 0 [] with
  | None -> Aliasres.Ally.Unresponsive
  | Some seq ->
    let ids = List.map fst seq in
    let own tag = List.filter_map (fun (id, t) -> if t = tag then Some id else None) seq in
    if not (monotonic (own `A) && monotonic (own `B)) then Aliasres.Ally.Unresponsive
    else if monotonic ids then Aliasres.Ally.Aliases
    else Aliasres.Ally.Not_aliases

let ally_test sampler ~wait a b ~trials ~samples =
  let rec go i best =
    if i >= trials then best
    else begin
      if i > 0 then wait ();
      match ally_trial sampler a b ~samples with
      | Aliasres.Ally.Not_aliases -> Aliasres.Ally.Not_aliases
      | Aliasres.Ally.Aliases -> go (i + 1) Aliasres.Ally.Aliases
      | Aliasres.Ally.Unresponsive -> go (i + 1) best
    end
  in
  go 0 Aliasres.Ally.Unresponsive
