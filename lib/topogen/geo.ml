type city = { name : string; lon : float; lat : float }

let us_cities =
  [| { name = "Seattle"; lon = -122.33; lat = 47.61 };
     { name = "Portland"; lon = -122.68; lat = 45.52 };
     { name = "San Jose"; lon = -121.89; lat = 37.34 };
     { name = "Los Angeles"; lon = -118.24; lat = 34.05 };
     { name = "Phoenix"; lon = -112.07; lat = 33.45 };
     { name = "Salt Lake City"; lon = -111.89; lat = 40.76 };
     { name = "Denver"; lon = -104.99; lat = 39.74 };
     { name = "Dallas"; lon = -96.80; lat = 32.78 };
     { name = "Houston"; lon = -95.37; lat = 29.76 };
     { name = "Kansas City"; lon = -94.58; lat = 39.10 };
     { name = "Minneapolis"; lon = -93.27; lat = 44.98 };
     { name = "Chicago"; lon = -87.63; lat = 41.88 };
     { name = "St. Louis"; lon = -90.20; lat = 38.63 };
     { name = "Nashville"; lon = -86.78; lat = 36.16 };
     { name = "Atlanta"; lon = -84.39; lat = 33.75 };
     { name = "Miami"; lon = -80.19; lat = 25.76 };
     { name = "Charlotte"; lon = -80.84; lat = 35.23 };
     { name = "Ashburn"; lon = -77.49; lat = 39.04 };
     { name = "Philadelphia"; lon = -75.17; lat = 39.95 };
     { name = "New York"; lon = -74.01; lat = 40.71 };
     { name = "Boston"; lon = -71.06; lat = 42.36 } |]

let city_named name = Array.find_opt (fun c -> String.equal c.name name) us_cities

let distance_km a b =
  let rad d = d *. Float.pi /. 180.0 in
  let dlat = rad (b.lat -. a.lat) and dlon = rad (b.lon -. a.lon) in
  let h =
    (sin (dlat /. 2.0) ** 2.0)
    +. (cos (rad a.lat) *. cos (rad b.lat) *. (sin (dlon /. 2.0) ** 2.0))
  in
  6371.0 *. 2.0 *. atan2 (sqrt h) (sqrt (1.0 -. h))

let equal_city a b = String.equal a.name b.name
