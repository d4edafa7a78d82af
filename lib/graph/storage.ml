let max_nodes = 1 lsl 31

let offheap_nodes = 1 lsl 17

module I32 = struct
  type raw = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

  type t = { mutable data : raw }

  let alloc len : raw =
    let a = Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout (max 1 len) in
    Bigarray.Array1.fill a 0l;
    a

  let create len =
    if len < 0 then invalid_arg "Storage.I32.create: negative length";
    { data = alloc len }

  let[@inline] length t = Bigarray.Array1.dim t.data

  let[@inline] get t i = Int32.to_int (Bigarray.Array1.get t.data i)

  let[@inline] set t i v = Bigarray.Array1.set t.data i (Int32.of_int v)

  let[@inline] unsafe_get t i = Int32.to_int (Bigarray.Array1.unsafe_get t.data i)

  let[@inline] unsafe_set t i v = Bigarray.Array1.unsafe_set t.data i (Int32.of_int v)

  let fill t pos len v =
    if pos < 0 || len < 0 || pos + len > length t then invalid_arg "Storage.I32.fill";
    Bigarray.Array1.fill (Bigarray.Array1.sub t.data pos len) (Int32.of_int v)

  let blit src spos dst dpos len =
    if
      spos < 0 || dpos < 0 || len < 0
      || spos + len > length src
      || dpos + len > length dst
    then invalid_arg "Storage.I32.blit";
    Bigarray.Array1.blit
      (Bigarray.Array1.sub src.data spos len)
      (Bigarray.Array1.sub dst.data dpos len)

  let ensure t capacity =
    let cur = length t in
    if capacity > cur then begin
      let cap = ref (max 1 cur) in
      while !cap < capacity do
        cap := 2 * !cap
      done;
      let bigger = alloc !cap in
      Bigarray.Array1.blit t.data (Bigarray.Array1.sub bigger 0 cur);
      t.data <- bigger
    end

  let[@inline] raw t = t.data
end

module Ix = struct
  type raw = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

  type t = { mutable data : raw }

  let alloc len : raw =
    let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (max 1 len) in
    Bigarray.Array1.fill a 0;
    a

  let create len =
    if len < 0 then invalid_arg "Storage.Ix.create: negative length";
    { data = alloc len }

  let[@inline] length t = Bigarray.Array1.dim t.data

  let[@inline] get t i = Bigarray.Array1.get t.data i

  let[@inline] set t i v = Bigarray.Array1.set t.data i v

  let[@inline] unsafe_get t i = Bigarray.Array1.unsafe_get t.data i

  let[@inline] unsafe_set t i v = Bigarray.Array1.unsafe_set t.data i v

  let fill t pos len v =
    if pos < 0 || len < 0 || pos + len > length t then invalid_arg "Storage.Ix.fill";
    Bigarray.Array1.fill (Bigarray.Array1.sub t.data pos len) v

  let ensure t capacity =
    let cur = length t in
    if capacity > cur then begin
      let cap = ref (max 1 cur) in
      while !cap < capacity do
        cap := 2 * !cap
      done;
      let bigger = alloc !cap in
      Bigarray.Array1.blit t.data (Bigarray.Array1.sub bigger 0 cur);
      t.data <- bigger
    end

  let[@inline] raw t = t.data
end

module Bitset = struct
  type t = { bits : Bytes.t; n : int }

  let create n =
    if n < 0 then invalid_arg "Storage.Bitset.create: negative length";
    { bits = Bytes.make ((n + 7) lsr 3) '\000'; n }

  let[@inline] length t = t.n

  let[@inline] unsafe_get t i =
    Char.code (Bytes.unsafe_get t.bits (i lsr 3)) land (1 lsl (i land 7)) <> 0

  let[@inline] unsafe_set t i =
    let byte = i lsr 3 in
    Bytes.unsafe_set t.bits byte
      (Char.unsafe_chr (Char.code (Bytes.unsafe_get t.bits byte) lor (1 lsl (i land 7))))

  let[@inline] unsafe_clear t i =
    let byte = i lsr 3 in
    Bytes.unsafe_set t.bits byte
      (Char.unsafe_chr (Char.code (Bytes.unsafe_get t.bits byte) land lnot (1 lsl (i land 7))))

  let get t i =
    if i < 0 || i >= t.n then invalid_arg "Storage.Bitset.get";
    unsafe_get t i

  let set t i =
    if i < 0 || i >= t.n then invalid_arg "Storage.Bitset.set";
    unsafe_set t i

  let clear t i =
    if i < 0 || i >= t.n then invalid_arg "Storage.Bitset.clear";
    unsafe_clear t i

  let clear_all t = Bytes.fill t.bits 0 (Bytes.length t.bits) '\000'

  let[@inline] bits t = t.bits
end
