(** Geographic placement of routers and interconnection facilities.
    Figure 16 of the paper plots interdomain links by longitude; the
    generator places routers in real U.S. metro areas so the figure's
    shape (coast-to-coast spread, hot-potato locality) is reproducible. *)

type city = { name : string; lon : float; lat : float }

(** Major U.S. interconnection metros, west to east. *)
val us_cities : city array

(** [city_named name] finds a city by name. *)
val city_named : string -> city option

(** [distance_km a b] is the haversine distance. *)
val distance_km : city -> city -> float

val equal_city : city -> city -> bool
