let basis = 0x811c9dc5

let fold h s =
  let h = ref h in
  String.iter
    (fun c -> h := (!h lxor Char.code c) * 0x01000193 land 0xffffffff)
    s;
  !h

let hash32 s = fold basis s
