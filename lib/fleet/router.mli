(** Request routing across the active nodes of a fleet.

    One immutable candidate snapshot per request in, one node id out
    (or none — global backpressure).  The only state is a round-robin
    cursor and per-decision counters, so routing is deterministic in
    (candidates, arrival order). *)

type policy =
  | Round_robin  (** rotate over nodes with room *)
  | Least_loaded  (** minimum queued + in-flight, ties to lowest id *)
  | Locality
      (** least-loaded among nodes with the request's compatibility
          key warm; spill to least-loaded (paying a modeled HBM key
          load) when no warm node has room *)

val policy_name : policy -> string

(** Accepts long and short spellings ([rr], [ll], [loc]). *)
val policy_of_string : string -> policy option

val all_policies : policy list

type candidate = {
  cd_id : int;
  cd_load : int;  (** queued + in-flight requests *)
  cd_has_room : bool;
  cd_warm : bool;  (** compat key resident in the node's key cache *)
}

type t

val create : policy -> t

(** Pick a node id from candidates (given in node-id order); [None]
    means every node is at capacity.  Counts the decision. *)
val pick : t -> candidate list -> int option

(** Decision counters, non-zero entries only: [round_robin],
    [least_loaded], [locality_warm], [locality_spill],
    [fleet_full]. *)
val decisions : t -> (string * int) list
