let via_alias x = x * 2
