type t = { bits : int array; n : int }

let word_bits = Sys.int_size

let create n =
  if n < 0 then invalid_arg "Bitset.create";
  { bits = Array.make ((n + word_bits - 1) / word_bits) 0; n }

let set t i =
  if i < 0 || i >= t.n then invalid_arg "Bitset.set";
  let w = i / word_bits and b = i mod word_bits in
  t.bits.(w) <- t.bits.(w) lor (1 lsl b)

let union_into ~dst src =
  if src.n > dst.n then invalid_arg "Bitset.union_into";
  Array.iteri (fun i w -> dst.bits.(i) <- dst.bits.(i) lor w) src.bits

let to_list t =
  let acc = ref [] in
  for wi = Array.length t.bits - 1 downto 0 do
    let w = t.bits.(wi) in
    if w <> 0 then
      for b = word_bits - 1 downto 0 do
        if w land (1 lsl b) <> 0 then acc := ((wi * word_bits) + b) :: !acc
      done
  done;
  !acc
