type 'a t = { mutable data : 'a array; mutable len : int; dummy : 'a }

let create ?(capacity = 16) ~dummy () =
  { data = Array.make (max capacity 1) dummy; len = 0; dummy }

let length v = v.len

let get v i =
  if i < 0 || i >= v.len then invalid_arg "Vec.get";
  Array.unsafe_get v.data i

let set v i x =
  if i < 0 || i >= v.len then invalid_arg "Vec.set";
  Array.unsafe_set v.data i x

let grow v =
  let n = Array.length v.data in
  let data = Array.make (2 * n) v.dummy in
  Array.blit v.data 0 data 0 v.len;
  v.data <- data

let push v x =
  if v.len = Array.length v.data then grow v;
  Array.unsafe_set v.data v.len x;
  v.len <- v.len + 1

let pop v =
  if v.len = 0 then invalid_arg "Vec.pop";
  v.len <- v.len - 1;
  let x = v.data.(v.len) in
  v.data.(v.len) <- v.dummy;
  x

let top v =
  if v.len = 0 then invalid_arg "Vec.top";
  v.data.(v.len - 1)

let clear v =
  Array.fill v.data 0 v.len v.dummy;
  v.len <- 0

let shrink v n =
  if n < 0 || n > v.len then invalid_arg "Vec.shrink";
  Array.fill v.data n (v.len - n) v.dummy;
  v.len <- n

let iter f v =
  for i = 0 to v.len - 1 do
    f (Array.unsafe_get v.data i)
  done

let iteri f v =
  for i = 0 to v.len - 1 do
    f i (Array.unsafe_get v.data i)
  done

let fold f acc v =
  let acc = ref acc in
  for i = 0 to v.len - 1 do
    acc := f !acc (Array.unsafe_get v.data i)
  done;
  !acc

let exists p v =
  let rec go i = i < v.len && (p v.data.(i) || go (i + 1)) in
  go 0

let to_array v = Array.sub v.data 0 v.len
let to_list v = Array.to_list (to_array v)

let of_list ~dummy l =
  let v = create ~capacity:(max 1 (List.length l)) ~dummy () in
  List.iter (push v) l;
  v

let sort cmp v =
  let a = to_array v in
  Array.sort cmp a;
  Array.blit a 0 v.data 0 v.len
