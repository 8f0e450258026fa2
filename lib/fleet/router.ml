(* Request routing across the active nodes of a fleet.

   The router sees one immutable snapshot per request — candidates in
   node-id order with their live queue+inflight load and whether the
   request's compatibility key is warm in their key cache — and picks
   a node id, or none (global backpressure: every node's admission
   queue is at capacity).  All state it keeps is a round-robin cursor
   and per-decision counters, so routing is deterministic in
   (candidates, arrival order) and independent of the real pool size.

   Policies:
   - Round_robin: rotate over nodes with room, skipping full ones.
   - Least_loaded: minimum live load (queued + in-flight requests),
     ties to the lowest node id.
   - Locality: least-loaded among nodes where the key is already warm
     ("locality_warm" decisions); spill to plain least-loaded when no
     warm node has room ("locality_spill") — paying one modeled HBM
     key load to heat a new node rather than queueing behind a hot
     one. *)

type policy = Round_robin | Least_loaded | Locality

let policy_name = function
  | Round_robin -> "round_robin"
  | Least_loaded -> "least_loaded"
  | Locality -> "locality"

let policy_of_string = function
  | "round_robin" | "rr" -> Some Round_robin
  | "least_loaded" | "ll" -> Some Least_loaded
  | "locality" | "loc" -> Some Locality
  | _ -> None

let all_policies = [ Round_robin; Least_loaded; Locality ]

type candidate = {
  cd_id : int;
  cd_load : int; (* queued + in-flight requests *)
  cd_has_room : bool;
  cd_warm : bool; (* request's compat key resident in the node's key cache *)
}

type t = {
  rt_policy : policy;
  mutable cursor : int; (* round-robin position *)
  mutable d_round_robin : int;
  mutable d_least_loaded : int;
  mutable d_locality_warm : int;
  mutable d_locality_spill : int;
  mutable d_fleet_full : int;
}

let create policy =
  {
    rt_policy = policy;
    cursor = 0;
    d_round_robin = 0;
    d_least_loaded = 0;
    d_locality_warm = 0;
    d_locality_spill = 0;
    d_fleet_full = 0;
  }


let least_loaded cands =
  List.fold_left
    (fun best c ->
      if not c.cd_has_room then best
      else
        match best with
        | Some b when b.cd_load <= c.cd_load -> best
        | _ -> Some c)
    None cands

let round_robin t cands =
  let arr = Array.of_list cands in
  let n = Array.length arr in
  if n = 0 then None
  else begin
    let rec scan i =
      if i >= n then None
      else
        let idx = (t.cursor + i) mod n in
        if arr.(idx).cd_has_room then begin
          t.cursor <- (idx + 1) mod n;
          Some arr.(idx)
        end
        else scan (i + 1)
    in
    scan 0
  end

let pick t cands =
  let chosen =
    match t.rt_policy with
    | Round_robin -> (
      match round_robin t cands with
      | Some c ->
        t.d_round_robin <- t.d_round_robin + 1;
        Some c
      | None -> None)
    | Least_loaded -> (
      match least_loaded cands with
      | Some c ->
        t.d_least_loaded <- t.d_least_loaded + 1;
        Some c
      | None -> None)
    | Locality -> (
      match least_loaded (List.filter (fun c -> c.cd_warm) cands) with
      | Some c ->
        t.d_locality_warm <- t.d_locality_warm + 1;
        Some c
      | None -> (
        match least_loaded cands with
        | Some c ->
          t.d_locality_spill <- t.d_locality_spill + 1;
          Some c
        | None -> None))
  in
  match chosen with
  | Some c -> Some c.cd_id
  | None ->
    t.d_fleet_full <- t.d_fleet_full + 1;
    None

let decisions t =
  List.filter
    (fun (_, n) -> n > 0)
    [
      ("round_robin", t.d_round_robin);
      ("least_loaded", t.d_least_loaded);
      ("locality_warm", t.d_locality_warm);
      ("locality_spill", t.d_locality_spill);
      ("fleet_full", t.d_fleet_full);
    ]
