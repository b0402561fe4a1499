module Inner = struct
  let deep x = x - 1
end
