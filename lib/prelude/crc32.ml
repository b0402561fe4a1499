(* Reflected CRC-32, polynomial 0xEDB88320, init/xorout 0xFFFFFFFF —
   the checksum of zlib, PNG and Ethernet.  One 256-entry table, built
   eagerly at module init and never written again, so any number of
   domains may read it at once (a [lazy] table raised
   [CamlinternalLazy.Undefined] when two domains forced it together);
   all arithmetic stays in the low 32 bits of a native int (OCaml ints
   are 63-bit on every platform this project targets). *)

let mask32 = 0xFFFFFFFF

let table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let bytes ?(crc = 0) ?(pos = 0) ?len b =
  let len = match len with Some l -> l | None -> Bytes.length b - pos in
  if pos < 0 || len < 0 || pos + len > Bytes.length b then
    invalid_arg "Crc32.bytes: pos/len out of bounds";
  let c = ref (crc lxor mask32) in
  for i = pos to pos + len - 1 do
    c := table.((!c lxor Bytes.get_uint8 b i) land 0xff) lxor (!c lsr 8)
  done;
  (!c lxor mask32) land mask32

let string ?crc s = bytes ?crc (Bytes.unsafe_of_string s)
