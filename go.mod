module diablo

go 1.23
